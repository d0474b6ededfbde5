package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/circuits"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
)

// flowWorkload is a closed loop with one caller running the paper's
// generation flow on a fixed circuit list, one circuit after another. A
// round is one pass over the list. An untraced run makes as many rounds
// as fit the requested seconds at the round's time on the 2-vCPU
// reference host (at least one), so the work depends only on the seed
// and --seconds.
type flowWorkload struct {
	circuits       []string
	skipCompaction bool
	skipBaseline   bool
	roundTime      time.Duration
}

var (
	// table6 runs the whole Table 6 flow: omission and restoration
	// dominate it.
	table6 = flowWorkload{circuits: []string{"s382", "s420", "s526", "b09", "b10"}, roundTime: 45 * time.Second}
	// table5 runs the Section 2 generator alone. s5378 is left out: its
	// generation time alone varies twofold from seed to seed.
	table5 = flowWorkload{circuits: []string{"s1423", "b04", "b11", "s1196", "s953", "s820"},
		skipCompaction: true, skipBaseline: true, roundTime: 11 * time.Second}
)

// rounds is how many untraced rounds a run of the given length makes.
func (w flowWorkload) rounds(seconds time.Duration) int {
	return max(1, int((seconds+w.roundTime/2)/w.roundTime))
}

// goldenPath is the committed seed-1 Table 5/6 output, relative to the
// repository root the benchmark runs from.
const goldenPath = "results_table5_6.txt"

// A run measures set-up at least setupReps times and for at least
// setupSpan, and reports the median; a longer span evens out short
// stalls of a shared host.
const (
	setupReps = 15
	setupSpan = time.Second
)

// setupDone reports whether set-up has been timed often enough.
func setupDone(reps int, since time.Time) bool {
	return reps >= setupReps && time.Since(since) >= setupSpan
}

func (w flowWorkload) config(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.SkipCompaction = w.skipCompaction
	cfg.SkipBaseline = w.skipBaseline
	return cfg
}

// flowRun is one circuit's pass through the flow.
type flowRun struct {
	name string
	row  core.GenerateRow
	art  *core.GenerateArtifacts
	err  error
	dur  time.Duration
}

// final is the sequence the flow delivers: the omitted sequence, or the
// raw one when compaction is skipped.
func (f flowRun) final(w flowWorkload) logic.Sequence {
	if w.skipCompaction {
		return f.art.Raw
	}
	return f.art.Omitted
}

func (f flowRun) finalLen(w flowWorkload) int {
	if w.skipCompaction {
		return f.row.TestLen
	}
	return f.row.OmitLen
}

// runFlows runs a flow workload's untraced rounds. The traced run makes
// one untraced round, then one traced round through the same layers,
// and compares the two field for field.
func runFlows(w flowWorkload, opt options, r *run) error {
	cfg := w.config(opt.seed)
	setup, err := measureFlowSetup(w.circuits)
	if err != nil {
		return err
	}

	n := w.rounds(opt.seconds)
	if opt.trace {
		n = 1
	}
	sec := beginSection()
	var rounds [][]flowRun
	for i := 0; i < n; i++ {
		rounds = append(rounds, flowRound(w, cfg, i == 0))
	}
	sec.end()
	peak := peakRSSMiB()
	r.noteSteal(sec)

	counts := checkFlows(w, opt, r, rounds)
	roundWall := make([]float64, len(rounds))
	var perCircuit []float64
	for i, round := range rounds {
		for _, f := range round {
			roundWall[i] += f.dur.Seconds()
			perCircuit = append(perCircuit, ms(f.dur))
		}
	}
	r.detail["round_wall_s"] = roundWall
	r.detail["circuit_ms"] = perCircuit
	r.detail["rows"] = rows(rounds[0])

	if opt.trace {
		return traceFlows(w, cfg, opt, r, rounds[0], sec, counts)
	}
	r.set("setup_s", setup, "s")
	r.detail["wall_s"] = median(roundWall)
	r.set("cpu_s", sec.CPU.Seconds()/float64(n), "s")
	r.set("peak_rss_mib", peak, "MiB")
	r.set("test_cycles", float64(counts["test_cycles"]), "cycles")
	r.set("detected_faults", float64(counts["detected_faults"]), "faults")
	return checkDeterminism(opt, r, counts)
}

// measureFlowSetup times circuits.Load + scan.Insert + fault.Universe
// over every workload circuit, repeatedly, and returns the median in
// seconds. Set-up is single-threaded, so it is timed on its own locked
// OS thread's CPU clock, which time stolen by the host does not stretch.
func measureFlowSetup(names []string) (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var reps []float64
	for begin := time.Now(); !setupDone(len(reps), begin); {
		start := threadCPU()
		for _, name := range names {
			c, err := circuits.Load(name)
			if err != nil {
				return 0, err
			}
			sc, err := scan.Insert(c)
			if err != nil {
				return 0, err
			}
			fault.Universe(sc.ScanCircuit(), true)
		}
		reps = append(reps, (threadCPU() - start).Seconds())
	}
	return median(reps), nil
}

// flowRound runs every circuit once through core.RunGenerate. Only the
// first round keeps its artifacts for the output checks.
func flowRound(w flowWorkload, cfg core.Config, keep bool) []flowRun {
	var out []flowRun
	for _, name := range w.circuits {
		start := time.Now()
		row, art, err := core.RunGenerate(name, cfg)
		f := flowRun{name: name, row: row, err: err, dur: time.Since(start)}
		if keep {
			f.art = art
		}
		out = append(out, f)
	}
	return out
}

func rows(round []flowRun) []core.GenerateRow {
	var out []core.GenerateRow
	for _, f := range round {
		out = append(out, f.row)
	}
	return out
}

// checkFlows checks every flow run outside the timed section and
// returns the run's deterministic counts. Each circuit run is one
// attempted operation; a flow error, a stopped status or a failed
// output check fails it.
func checkFlows(w flowWorkload, opt options, r *run, rounds [][]flowRun) map[string]int64 {
	var golden5, golden6 map[string]string
	if opt.seed == 1 {
		var err error
		golden5, golden6, err = loadGolden(goldenPath)
		if err != nil {
			r.problem("seed-1 tables: %v", err)
		}
	}
	counts := make(map[string]int64)
	for ri, round := range rounds {
		for ci, f := range round {
			r.attempted++
			if f.err != nil || !f.row.Status.Done() {
				r.fail("%s: flow ended %v: %v", f.name, f.row.Status, f.err)
				continue
			}
			if ri > 0 {
				if d := diffRows(rounds[0][ci].row, f.row); len(d) > 0 {
					r.fail("%s: round %d row differs from round 0 in %v", f.name, ri, d)
				}
				continue
			}
			det, err := checkFlowOutput(w, f)
			if err == nil && golden5 != nil {
				err = checkGolden(w, f.row, golden5, golden6)
			}
			if err != nil {
				r.fail("%s: %v", f.name, err)
				continue
			}
			counts["test_cycles"] += int64(f.finalLen(w))
			counts["detected_faults"] += int64(det)
			counts["seqatpg.vectors"] += int64(f.row.TestLen)
			counts["compact.restore_batch_steps"] += f.art.RestoreStats.BatchSteps
			counts["compact.omit_batch_steps"] += f.art.OmitStats.BatchSteps
		}
	}
	return counts
}

// checkFlowOutput regrades the final sequence with the full-evaluation
// reference kernel and returns how many faults it detects. Every fault
// the raw sequence detected must stay detected, the regraded count must
// match the row, and the lengths must shrink pass by pass.
func checkFlowOutput(w flowWorkload, f flowRun) (int, error) {
	art := f.art
	ref := sim.NewSimulator(art.Scan.ScanCircuit(), 0).
		Run(f.final(w), art.Faults, sim.Options{Kernel: sim.KernelFull})
	for i, at := range art.Gen.DetectedAt {
		if at != sim.NotDetected && !ref.Detected(i) {
			return 0, fmt.Errorf("fault %d detected by the raw sequence is lost in the final one", i)
		}
	}
	det := ref.NumDetected()
	want := f.row.Detected
	if !w.skipCompaction {
		want += f.row.ExtDet
		if !(f.row.OmitLen <= f.row.RestorLen && f.row.RestorLen <= f.row.TestLen) {
			return 0, fmt.Errorf("lengths omit %d, restor %d, test %d are not ordered",
				f.row.OmitLen, f.row.RestorLen, f.row.TestLen)
		}
	}
	if det != want {
		return 0, fmt.Errorf("reference regrade detects %d faults, the row claims %d", det, want)
	}
	return det, nil
}

// loadGolden reads the committed Table 5 and Table 6 lines, keyed by
// circuit.
func loadGolden(path string) (t5, t6 map[string]string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	t5, t6 = make(map[string]string), make(map[string]string)
	var cur map[string]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Table 5:"):
			cur = t5
		case strings.HasPrefix(line, "Table 6:"):
			cur = t6
		case cur != nil:
			fields := strings.Fields(line)
			if len(fields) > 0 && fields[0] != "circ" && fields[0] != "total" {
				cur[fields[0]] = line
			}
		}
	}
	return t5, t6, sc.Err()
}

// checkGolden compares a seed-1 row with its committed Table 5 line and
// its Table 6 line: every column after compaction, the test and scan
// columns without it.
func checkGolden(w flowWorkload, row core.GenerateRow, t5, t6 map[string]string) error {
	one := []core.GenerateRow{row}
	if got, want := tableLine(report.Table5(one)), t5[row.Circ]; got != want {
		return fmt.Errorf("Table 5 row %q, committed %q", got, want)
	}
	want6 := t6[row.Circ]
	if !w.skipCompaction {
		if got := tableLine(report.Table6(one)); got != want6 {
			return fmt.Errorf("Table 6 row %q, committed %q", got, want6)
		}
		return nil
	}
	fields := strings.Fields(want6)
	if len(fields) < 3 || fields[1] != strconv.Itoa(row.TestLen) || fields[2] != strconv.Itoa(row.TestScan) {
		return fmt.Errorf("test/scan %d/%d, committed row %q", row.TestLen, row.TestScan, want6)
	}
	return nil
}

// tableLine is the first data line of a rendered one-row table.
func tableLine(table string) string {
	lines := strings.Split(table, "\n")
	if len(lines) < 3 {
		return ""
	}
	return lines[2]
}

// tracedFlow is one circuit's traced pass.
type tracedFlow struct {
	row          core.GenerateRow
	restore, omt compact.Stats
	err          error
}

// tracedGenerate runs core.RunGenerate's stages for one circuit (single
// chain, no run control, no omission cap) through the layers' public
// functions, in RunGenerate's order, with a span around each call and
// reg observing the engines' own counters.
func tracedGenerate(name string, cfg core.Config, reg obs.Observer, tr *tracer) tracedFlow {
	root := tr.begin("flow", "harness", name, 0)
	defer tr.end(root)
	call := func(fn, layer string, f func()) {
		id := tr.begin(fn, layer, name, root)
		f()
		tr.end(id)
	}
	var out tracedFlow
	var c *netlist.Circuit
	var err error
	call("circuits.Load", "setup", func() { c, err = circuits.Load(name) })
	if err != nil {
		out.err = err
		return out
	}
	var sc *scan.Circuit
	call("scan.Insert", "setup", func() { sc, err = scan.Insert(c) })
	if err != nil {
		out.err = err
		return out
	}
	cs := sc.ScanCircuit()
	var faults []fault.Fault
	call("fault.Universe", "setup", func() { faults = fault.Universe(cs, cfg.Collapse) })

	seqOpts := cfg.Seq
	if seqOpts.Seed == 0 {
		seqOpts.Seed = cfg.Seed
	}
	if seqOpts.Workers == 0 {
		seqOpts.Workers = cfg.Workers
	}
	seqOpts.Obs = reg
	var gen seqatpg.Result
	call("seqatpg.Generate", "generator", func() { gen = seqatpg.Generate(sc, faults, seqOpts) })
	row := core.GenerateRow{
		Circ:     name,
		Inp:      cs.NumInputs(),
		Stvr:     sc.NumStateVars(),
		Faults:   len(faults),
		Detected: gen.NumDetected(),
		FCov:     fault.Coverage(gen.NumDetected(), len(faults)),
		Funct:    gen.NumFunct(),
		TestLen:  len(gen.Sequence),
		TestScan: sc.CountScanVectors(gen.Sequence),
		Status:   gen.Status,
	}
	if !cfg.SkipCompaction {
		s := sim.NewSimulator(cs, cfg.Workers)
		s.Observe(reg)
		copts := compact.Options{Sim: s, Obs: reg, Engine: cfg.Engine, Order: cfg.Order}
		var restored, omitted logic.Sequence
		call("compact.RestoreOpts", "compaction", func() {
			restored, out.restore = compact.RestoreOpts(cs, gen.Sequence, faults, copts)
		})
		call("compact.OmitOpts", "compaction", func() {
			omitted, out.omt = compact.OmitOpts(cs, restored, faults, copts)
		})
		for _, st := range []runctl.Status{out.restore.Status, out.omt.Status} {
			if st != runctl.Complete {
				row.Status = st
			}
		}
		row.RestorLen, row.RestorScan = len(restored), sc.CountScanVectors(restored)
		row.OmitLen, row.OmitScan = len(omitted), sc.CountScanVectors(omitted)
		call("sim.Simulator.Run", "kernel", func() { row.ExtDet = extraDetections(s, gen, omitted, faults) })
	}
	if !cfg.SkipBaseline {
		baseOpts := cfg.Baseline
		if baseOpts.Seed == 0 {
			baseOpts.Seed = cfg.Seed
		}
		if baseOpts.Workers == 0 {
			baseOpts.Workers = cfg.Workers
		}
		var origFaults []fault.Fault
		call("fault.Universe", "setup", func() { origFaults = fault.Universe(c, cfg.Collapse) })
		var base baseline.Result
		call("baseline.Generate", "comparator", func() { base = baseline.Generate(c, origFaults, baseOpts) })
		row.BaselineCycles = base.Cycles
	}
	out.row = row
	return out
}

// extraDetections counts faults the generator left undetected that the
// final sequence detects (core's "ext det").
func extraDetections(s *sim.Simulator, gen seqatpg.Result, final logic.Sequence, faults []fault.Fault) int {
	var sub []fault.Fault
	for fi := range faults {
		if gen.DetectedAt[fi] == sim.NotDetected {
			sub = append(sub, faults[fi])
		}
	}
	if len(sub) == 0 {
		return 0
	}
	return s.Run(final, sub, sim.Options{}).NumDetected()
}

// traceFlows makes the traced round after the untraced one, compares
// their rows and work counts, and reports the per-layer metrics.
func traceFlows(w flowWorkload, cfg core.Config, opt options, r *run, untraced []flowRun, usec *section, counts map[string]int64) error {
	reg := obs.NewRegistry()
	tr := newTracer()
	sec := beginSection()
	var traced []tracedFlow
	for _, name := range w.circuits {
		traced = append(traced, tracedGenerate(name, cfg, reg, tr))
	}
	sec.end()
	r.noteSteal(sec)

	tcounts := make(map[string]int64)
	for i, t := range traced {
		r.attempted++
		if t.err != nil || !t.row.Status.Done() {
			r.fail("%s: traced flow ended %v: %v", t.row.Circ, t.row.Status, t.err)
			continue
		}
		if d := diffRows(untraced[i].row, t.row); len(d) > 0 {
			r.fail("%s: traced row differs from core.RunGenerate in %v", w.circuits[i], d)
		}
		tcounts["compact.restore_batch_steps"] += t.restore.BatchSteps
		tcounts["compact.omit_batch_steps"] += t.omt.BatchSteps
		tcounts["seqatpg.vectors"] += int64(t.row.TestLen)
	}
	for k, v := range tcounts {
		if counts[k] != v {
			r.problem("determinism: %s is %d traced, %d untraced", k, v, counts[k])
		}
	}

	snap := reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	spans := tr.snapshot()
	r.spans = spans
	tot := spanTotals(spans)
	sec1 := func(name string) float64 { return tot[name] / 1000 }

	counts["compact.restore_trials"] = snap.Counters["restore.trials"]
	counts["compact.omit_trials"] = snap.Counters["omit.trials"]
	counts["compact.omit_windows"] = snap.Counters["omit.windows"]
	counts["combatpg.podem_calls"] = snap.Counters["generate.podem_calls"]
	counts["combatpg.podem_backtracks"] = snap.Counters["generate.podem_backtracks"]

	r.set("circuits.load_s", sec1("circuits.Load"), "s")
	r.set("scan.insert_s", sec1("scan.Insert"), "s")
	r.set("fault.universe_s", sec1("fault.Universe"), "s")

	genS := sec1("seqatpg.Generate")
	r.set("seqatpg.generate_s", genS, "s")
	r.set("seqatpg.vectors", float64(counts["seqatpg.vectors"]), "count")
	r.set("seqatpg.frames", c("generate.frames"), "count")
	r.set("seqatpg.attempts", c("generate.attempts"), "count")
	r.set("seqatpg.attempt_yield", ratio(c("generate.attempt_success"), c("generate.attempts")), "ratio")
	r.set("seqatpg.flush_vectors", c("generate.flush_vectors"), "count")
	r.set("seqatpg.us_per_frame", ratio(genS*1e6, c("generate.frames")), "us")
	r.set("combatpg.podem_calls", c("generate.podem_calls"), "count")
	r.set("combatpg.podem_backtracks", c("generate.podem_backtracks"), "count")

	restS, omitS := sec1("compact.RestoreOpts"), sec1("compact.OmitOpts")
	rsteps, osteps := float64(counts["compact.restore_batch_steps"]), float64(counts["compact.omit_batch_steps"])
	r.set("compact.restore_s", restS, "s")
	r.set("compact.omit_s", omitS, "s")
	r.set("compact.restore_trials", c("restore.trials"), "count")
	r.set("compact.omit_trials", c("omit.trials"), "count")
	r.set("compact.omit_windows", c("omit.windows"), "count")
	r.set("compact.restore_batch_steps", rsteps, "count")
	r.set("compact.omit_batch_steps", osteps, "count")
	r.set("compact.omit_yield", ratio(c("omit.removed_vectors"), c("omit.trials")), "ratio")
	r.set("compact.restore_ns_per_batch_step", ratio(restS*1e9, rsteps), "ns")
	r.set("compact.omit_ns_per_batch_step", ratio(omitS*1e9, osteps), "ns")
	r.set("compact.omit_memo_hits", c("omit.window_memo_hits"), "count")
	r.set("compact.omit_reconv_cutoffs", c("omit.reconv_cutoffs"), "count")

	r.set("sim.runs", c("sim.runs"), "count")
	r.set("sim.batches", c("sim.batches"), "count")
	r.set("sim.batch_steps", c("sim.batch_steps"), "count")
	r.set("sim.fastforwarded", c("sim.fastforwarded"), "count")
	r.set("sim.trace_hit_ratio", ratio(c("sim.trace_hits"), c("sim.trace_hits")+c("sim.trace_misses")), "ratio")
	r.set("sim.pool_hit_ratio", ratio(c("sim.pool_hits"), c("sim.pool_hits")+c("sim.pool_misses")), "ratio")
	r.set("baseline.generate_s", sec1("baseline.Generate"), "s")
	setRuntimeMetrics(r, usec, 1)

	self := layerSelf(spans)
	for _, l := range flowLayers {
		r.set("self_s."+l, self[l]/1000, "s")
	}
	setZero(r, serviceMetric)
	var uwall float64
	for _, f := range untraced {
		uwall += f.dur.Seconds()
	}
	r.set("trace.overhead_share", ratio(sec.Wall.Seconds()-uwall, uwall), "ratio")
	r.detail["traced_rows"] = func() []core.GenerateRow {
		var out []core.GenerateRow
		for _, t := range traced {
			out = append(out, t.row)
		}
		return out
	}()
	return checkDeterminism(opt, r, counts)
}

// setRuntimeMetrics reports the Go runtime's allocation and GC counts
// over an untraced section, per round.
func setRuntimeMetrics(r *run, s *section, rounds float64) {
	r.set("runtime.alloc_mib", float64(s.AllocBytes)/(1<<20)/rounds, "MiB")
	r.set("runtime.mallocs", float64(s.Mallocs)/rounds, "count")
	r.set("runtime.gc_cycles", float64(s.GCCycles)/rounds, "count")
}
