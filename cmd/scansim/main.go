// Command scansim fault-simulates a test sequence against a scan
// circuit and reports coverage and test application time. Sequences are
// text files with one 0/1/x vector per line (the format logic.Sequence
// prints); widths must match the scan circuit's input count.
//
// Usage:
//
//	scangen -circuit s27 -print-seq > /tmp/seq.txt   # or any source
//	scansim -circuit s27 -seq /tmp/seq.txt
//	scansim -circuit s27 -gen -out /tmp/seq.txt      # generate and save
//
// Long runs can be budgeted and made crash-safe with -timeout,
// -checkpoint and -resume (see scangen for the full description): an
// interrupted run reports partial coverage and exits 0; resuming it
// produces results bit-identical to an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/circuits"
	"repro/internal/diagnose"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
	"repro/internal/testprog"
	"repro/internal/transition"
)

func main() {
	var (
		circuit    = flag.String("circuit", "", "catalog circuit name")
		seqFile    = flag.String("seq", "", "sequence file to simulate")
		gen        = flag.Bool("gen", false, "generate a sequence instead of reading one")
		out        = flag.String("out", "", "write the sequence to this file")
		seed       = flag.Uint64("seed", 1, "random seed for -gen")
		noCollapse = flag.Bool("no-collapse", false, "disable fault equivalence collapsing")
		prog       = flag.Bool("prog", false, "print the sequence as a segmented tester program")
		diag       = flag.Bool("diag", false, "build a fault dictionary and report diagnostic resolution")
		verify     = flag.Bool("verify", false, "validate the sequence's structure (width, fully specified)")
		trans      = flag.Bool("transition", false, "also grade the sequence for gross-delay transition faults")
		workers    = flag.Int("workers", 0, "fault-simulation worker count (0 = all cores; results are identical for every value)")
	)
	rc := runctl.RegisterFlags("scansim")
	oc := obs.RegisterFlags("scansim")
	pf := prof.Register()
	flag.Parse()
	if err := pf.Start(); err != nil {
		fail(err)
	}
	defer func() {
		if err := pf.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "scansim:", err)
		}
	}()
	if *circuit == "" || (*seqFile == "" && !*gen) {
		fmt.Fprintln(os.Stderr, "scansim: need -circuit NAME and (-seq FILE or -gen)")
		flag.Usage()
		os.Exit(2)
	}
	ctl, err := rc.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scansim:", err)
		os.Exit(2)
	}
	ort, err := oc.Build(rc.Resume)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scansim:", err)
		os.Exit(2)
	}
	defer func() {
		if s := ort.Summary(); s != nil {
			if out := report.ObsSummary(*s); out != "" {
				fmt.Println()
				fmt.Print(out)
			}
		}
		if err := ort.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "scansim:", err)
		}
	}()
	c, err := circuits.Load(*circuit)
	if err != nil {
		fail(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		fail(err)
	}
	faults := fault.Universe(sc.Scan, !*noCollapse)

	var seq logic.Sequence
	if *gen {
		res := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: *seed, Workers: *workers, Control: ctl, Obs: ort.Observer()})
		if res.Err != nil {
			fail(res.Err)
		}
		seq = res.Sequence
		if res.Status.Stopped() {
			// Partial generation: simulating (and checkpointing a
			// simulation of) a sequence that will grow on resume would
			// poison the "sim" checkpoint section; report and stop here.
			if *out != "" {
				if err := os.WriteFile(*out, []byte(seq.String()+"\n"), 0o644); err != nil {
					fail(err)
				}
			}
			fmt.Printf("generated %d vectors so far, detected %d of %d faults\n",
				len(seq), res.NumDetected(), len(faults))
			fmt.Println(report.RunBanner(res.Status, rc.Checkpoint))
			return
		}
	} else {
		data, err := os.ReadFile(*seqFile)
		if err != nil {
			fail(err)
		}
		seq, err = logic.ParseSequence(string(data))
		if err != nil {
			fail(err)
		}
		if len(seq) > 0 && len(seq[0]) != sc.Scan.NumInputs() {
			fail(fmt.Errorf("vector width %d, circuit has %d inputs", len(seq[0]), sc.Scan.NumInputs()))
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(seq.String()+"\n"), 0o644); err != nil {
			fail(err)
		}
	}

	if *verify {
		// Widths were checked when the sequence was read or generated.
		for t, v := range seq {
			if !v.Specified() {
				fail(fmt.Errorf("vector %d contains X values", t))
			}
		}
		fmt.Println("sequence structure: OK (widths match, fully specified)")
	}
	sm := sim.NewSimulator(sc.Scan, *workers)
	sm.Observe(ort.Observer())
	res := sm.Run(seq, faults, sim.Options{Control: ctl})
	if res.Err != nil {
		fail(res.Err)
	}
	det := res.NumDetected()
	fmt.Printf("circuit %s_scan: %d inputs, %d state variables\n",
		*circuit, sc.Scan.NumInputs(), sc.NumStateVars())
	fmt.Printf("sequence length (clock cycles): %d\n", len(seq))
	fmt.Printf("scan vectors (scan_sel=1):      %d\n", sc.CountScanVectors(seq))
	fmt.Printf("faults: %d, detected: %d (%.2f%%)\n",
		len(faults), det, fault.Coverage(det, len(faults)))
	if *prog {
		p := testprog.Split(sc, seq)
		st := p.Stats()
		fmt.Printf("tester program: %d scan ops (%d limited, %d complete), %d scan cycles, %d functional cycles\n",
			st.ScanOps, st.LimitedScanOps, st.CompleteScanOps, st.ScanCycles, st.FuncCycles)
		fmt.Print(p.Format())
	}
	if *trans {
		tf := transition.Universe(sc.Scan)
		tr := transition.Run(sc.Scan, seq, tf)
		fmt.Printf("transition faults: %d, detected: %d (%.2f%%) — at-speed coverage for free\n",
			len(tf), tr.NumDetected(), tr.Coverage())
	}
	if *diag {
		d := diagnose.BuildWith(sm, seq, faults)
		groups := d.Equivalent()
		fmt.Printf("fault dictionary: diagnostic resolution %.3f, %d indistinguishable groups\n",
			d.Resolution(), len(groups))
	}
	// Detection-time histogram in ten buckets.
	if len(seq) > 0 && det > 0 {
		buckets := make([]int, 10)
		for _, t := range res.DetectedAt {
			if t == sim.NotDetected {
				continue
			}
			b := t * 10 / len(seq)
			if b > 9 {
				b = 9
			}
			buckets[b]++
		}
		fmt.Println("detection-time histogram (deciles of the sequence):")
		for b, n := range buckets {
			fmt.Printf("  %3d%%-%3d%%: %d\n", b*10, (b+1)*10, n)
		}
	}
	if ctl != nil {
		fmt.Println(report.RunBanner(res.Status, rc.Checkpoint))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "scansim:", err)
	os.Exit(1)
}
