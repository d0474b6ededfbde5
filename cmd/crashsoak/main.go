// Command crashsoak is the crash/resume soak harness behind `make
// soak` (docs/ALGORITHMS.md §14). Each iteration picks a flow (generation,
// restoration or omission), then repeatedly runs it as a child process
// with a deterministic kill failpoint armed somewhere in the
// checkpoint-store or metrics-append path. A killed child (exit 137)
// is resumed from its on-disk checkpoint; the iteration ends when a
// leg completes. The harness then asserts the survival contract:
//
//   - the completed run's output (sequence + semantic stats) is
//     byte-identical to an uninterrupted reference run of the same
//     flow, no matter where the kills landed — including between the
//     checkpoint temp-file write and its rename, and mid-append on the
//     metrics recorder (a torn JSONL tail);
//   - the metrics file accumulated across all legs still validates
//     against the flight-recorder schema.
//
// Kills are drawn from a seeded RNG, so a failing schedule replays
// from -seed. The harness fails if a soak of 20+ iterations never
// kills a child (the failpoints went dead) and on any child exit other
// than success or the injected kill.
//
// Usage:
//
//	crashsoak -iters 200 -seed 1 [-v]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/circuits"
	"repro/internal/compact"
	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/seqatpg"
)

// maxLegs bounds one iteration's kill/resume cycle; the final leg runs
// with no failpoints armed so the iteration always terminates.
const maxLegs = 8

// killSites are the failpoint sites the harness aims kills at. The
// store sites cover every stage of the write-temp/fsync/rotate/rename/
// dirsync publication protocol plus the resume-time read; the recorder
// site tears a metrics append mid-line before the crash.
var killSites = []string{
	"runctl.store.write",
	"runctl.store.sync",
	"runctl.store.rotate",
	"runctl.store.rename",
	"runctl.store.dirsync",
	"runctl.store.read",
	"obs.recorder.append",
}

var flows = []string{"generate", "restore", "omit"}

func main() {
	child := flag.Bool("child", false, "run one flow leg (internal; used by the parent harness)")
	flow := flag.String("flow", "", "child: flow to run (generate|restore|omit)")
	dir := flag.String("dir", "", "child: working directory for checkpoint/metrics/output files")
	resume := flag.Bool("resume", false, "child: resume from the checkpoint in -dir")
	failpoints := flag.String("failpoints", "", "child: arm fault-injection sites (see internal/failpoint)")
	iters := flag.Int("iters", 200, "soak iterations (one kill/resume cycle each)")
	seed := flag.Int64("seed", 1, "RNG seed for the kill schedule")
	verbose := flag.Bool("v", false, "log every leg")
	flag.Parse()

	if *child {
		if *failpoints != "" {
			if err := failpoint.Enable(*failpoints); err != nil {
				os.Exit(fail(err))
			}
		}
		os.Exit(runChild(*flow, *dir, *resume))
	}
	os.Exit(runParent(*iters, *seed, *verbose))
}

// --- child ---------------------------------------------------------------

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "crashsoak:", err)
	return 1
}

// runChild executes one leg of a flow against the checkpoint store and
// metrics file in dir, writing the flow's deterministic output to
// dir/out. Failpoints arrive armed from the -failpoints flag. An
// injected torn metrics append is promoted to the kill exit code: the
// file is left exactly as a crash mid-append would leave it.
func runChild(flow, dir string, resume bool) int {
	if flow == "" || dir == "" {
		return fail(fmt.Errorf("-child needs -flow and -dir"))
	}
	store := runctl.NewFileStore(filepath.Join(dir, "ckpt"))
	store.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "crashsoak: "+format+"\n", args...)
	}
	ctl := &runctl.Control{Store: store, Resume: resume, SaveEvery: 1}

	ocli := &obs.CLI{Metrics: filepath.Join(dir, "metrics.jsonl"), Program: "crashsoak"}
	rt, err := ocli.Build(resume)
	if err != nil {
		return fail(err)
	}

	var out string
	switch flow {
	case "generate":
		sc, faults := loadScan("s298")
		res := seqatpg.Generate(sc, faults, seqatpg.Options{
			Seed: 11, Passes: 1, Control: ctl, Obs: rt.Observer()})
		if res.Status != runctl.Complete && res.Status != runctl.Resumed {
			return fail(fmt.Errorf("generate: status %v err %v", res.Status, res.Err))
		}
		out = fmt.Sprintf("generate\n%s\ndetected=%d funct=%d\n",
			res.Sequence, res.NumDetected(), res.NumFunct())
	case "restore", "omit":
		sc, faults := loadScan("s27")
		seq := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 11}).Sequence
		copts := compact.Options{Control: ctl, Obs: rt.Observer()}
		run := compact.RestoreOpts
		if flow == "omit" {
			run = compact.OmitOpts
		}
		res, st := run(sc.ScanCircuit(), seq, faults, copts)
		if st.Status != runctl.Complete && st.Status != runctl.Resumed {
			return fail(fmt.Errorf("%s: status %v err %v", flow, st.Status, st.Err))
		}
		out = fmt.Sprintf("%s\n%s\nbefore=%d after=%d targets=%d extra=%d\n",
			flow, res, st.BeforeLen, st.AfterLen, st.TargetFaults, st.ExtraDetected)
	default:
		return fail(fmt.Errorf("unknown flow %q", flow))
	}

	if err := os.WriteFile(filepath.Join(dir, "out"), []byte(out), 0o644); err != nil {
		return fail(err)
	}
	if err := rt.Close(); err != nil {
		if failpoint.IsInjected(err) {
			return failpoint.KillExitCode // torn append = crash mid-write
		}
		return fail(err)
	}
	return 0
}

func loadScan(name string) (*scan.Circuit, []fault.Fault) {
	c, err := circuits.Load(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashsoak:", err)
		os.Exit(1)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashsoak:", err)
		os.Exit(1)
	}
	return sc, fault.Universe(sc.ScanCircuit(), true)
}

// --- parent --------------------------------------------------------------

// spawn runs one child leg and returns its exit code.
func spawn(exe, flow, dir, spec string, resume bool, verbose bool) (int, error) {
	args := []string{"-child", "-flow", flow, "-dir", dir}
	if resume {
		args = append(args, "-resume")
	}
	if spec != "" {
		args = append(args, "-failpoints", spec)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if verbose {
		fmt.Fprintf(os.Stderr, "crashsoak: %s resume=%v spec=%q\n", flow, resume, spec)
	}
	err := cmd.Run()
	if err == nil {
		return 0, nil
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), nil
	}
	return -1, err
}

func runParent(iters int, seed int64, verbose bool) int {
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	root, err := os.MkdirTemp("", "crashsoak-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(root)
	rng := rand.New(rand.NewSource(seed))

	// Uninterrupted reference output per flow.
	refs := make(map[string][]byte)
	for _, flow := range flows {
		dir := filepath.Join(root, "ref-"+flow)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return fail(err)
		}
		code, err := spawn(exe, flow, dir, "", false, verbose)
		if err != nil || code != 0 {
			return fail(fmt.Errorf("reference %s leg: exit %d (%v)", flow, code, err))
		}
		refs[flow], err = os.ReadFile(filepath.Join(dir, "out"))
		if err != nil {
			return fail(err)
		}
	}

	kills, legs := 0, 0
	for it := 0; it < iters; it++ {
		flow := flows[it%len(flows)]
		dir := filepath.Join(root, fmt.Sprintf("it%d", it))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return fail(err)
		}
		done := false
		for leg := 0; leg < maxLegs && !done; leg++ {
			// First leg always aims a kill; later legs arm one half the
			// time so resumes regularly run to completion. The last leg
			// is always clean, bounding the iteration.
			spec := ""
			switch {
			case leg == maxLegs-1:
			case leg == 0:
				// A fresh leg never loads, so the read site cannot fire;
				// redraw to keep the first kill near-certain.
				for spec == "" || strings.HasPrefix(spec, "runctl.store.read=") {
					spec = killSpec(rng, 1+rng.Intn(6))
				}
			case rng.Intn(2) == 0:
				spec = killSpec(rng, 1+rng.Intn(12))
			}
			code, err := spawn(exe, flow, dir, spec, leg > 0, verbose)
			legs++
			switch {
			case err != nil:
				return fail(fmt.Errorf("iter %d leg %d: %v", it, leg, err))
			case code == 0:
				done = true
			case code == failpoint.KillExitCode:
				kills++
			default:
				return fail(fmt.Errorf("iter %d leg %d (%s, spec %q): unexpected exit %d", it, leg, flow, spec, code))
			}
		}
		if !done {
			return fail(fmt.Errorf("iter %d (%s): no leg completed in %d", it, flow, maxLegs))
		}

		out, err := os.ReadFile(filepath.Join(dir, "out"))
		if err != nil {
			return fail(fmt.Errorf("iter %d: %v", it, err))
		}
		if !bytes.Equal(out, refs[flow]) {
			return fail(fmt.Errorf("iter %d (%s): output after kills differs from uninterrupted reference:\n--- got ---\n%s--- want ---\n%s",
				it, flow, out, refs[flow]))
		}
		mf, err := os.Open(filepath.Join(dir, "metrics.jsonl"))
		if err != nil {
			return fail(fmt.Errorf("iter %d: %v", it, err))
		}
		_, verr := obs.Validate(mf)
		mf.Close()
		if verr != nil {
			return fail(fmt.Errorf("iter %d (%s): metrics file invalid after kills: %v", it, flow, verr))
		}
		os.RemoveAll(dir)
	}

	fmt.Printf("crashsoak: %d iterations, %d legs, %d kills survived bit-identically (seed %d)\n",
		iters, legs, kills, seed)
	if kills == 0 && iters >= 20 {
		return fail(fmt.Errorf("%d iterations produced zero kills — the failpoint sites are dead", iters))
	}
	return 0
}

// killSpec arms one random site with a kill at the given hit. The
// recorder site uses a torn write instead (the child promotes it to
// the kill exit code after the tear reaches the file).
func killSpec(rng *rand.Rand, hit int) string {
	site := killSites[rng.Intn(len(killSites))]
	if site == "obs.recorder.append" {
		return fmt.Sprintf("%s=partial:0.6@%d", site, hit)
	}
	return fmt.Sprintf("%s=kill@%d", site, hit)
}
