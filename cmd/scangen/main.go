// Command scangen runs the paper's test generation flow (Section 2) and
// static compaction (Section 4) on benchmark circuits, regenerating
// Tables 1, 4, 5 and 6.
//
// Usage:
//
//	scangen -circuit s27 -print-seq           # Table 1: raw sequence
//	scangen -circuit s27 -compact -print-seq  # Table 4: compacted sequence
//	scangen -suite small                      # Tables 5 and 6 over the small suite
//	scangen -suite full -no-baseline          # Table 5 over every circuit
//
// Long runs can be budgeted and made crash-safe:
//
//	scangen -circuit s5378 -compact -timeout 60s -checkpoint run.ckpt
//	scangen -circuit s5378 -compact -checkpoint run.ckpt -resume
//
// A budgeted run that stops (timeout, SIGINT, -max-attempts,
// -max-trials) prints partial results, writes its state to the
// checkpoint file and exits 0; -resume continues it and the final
// output is bit-identical to an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/runctl"
)

func main() {
	var (
		circuit    = flag.String("circuit", "", "single catalog circuit to run")
		suite      = flag.String("suite", "", "run a whole suite: small, medium or full")
		seed       = flag.Uint64("seed", 1, "random seed")
		doCompact  = flag.Bool("compact", false, "with -circuit: compact the generated sequence")
		printSeq   = flag.Bool("print-seq", false, "with -circuit: print the sequence as a paper-style table")
		noBaseline = flag.Bool("no-baseline", false, "skip the conventional-scan baseline")
		noCollapse = flag.Bool("no-collapse", false, "disable fault equivalence collapsing")
		adiOrder   = flag.Bool("adi-order", false, "restore faults in increasing accidental-detection-index order (changes the output)")
		chains     = flag.Int("chains", 1, "number of scan chains (generation flow)")
		workers    = flag.Int("workers", 0, "fault-simulation worker count (0 = all cores; results are identical for every value)")
		outFile    = flag.String("out", "", "with -circuit: write the (compacted) sequence to this file")
		verbose    = flag.Bool("v", false, "progress to stderr")
	)
	rc := runctl.RegisterFlags("scangen")
	oc := obs.RegisterFlags("scangen")
	pf := prof.Register()
	flag.Parse()
	if err := pf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "scangen:", err)
		os.Exit(1)
	}
	defer func() {
		if err := pf.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "scangen:", err)
		}
	}()
	ctl, err := rc.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scangen:", err)
		os.Exit(2)
	}
	if *suite != "" && ctl != nil && ctl.Store != nil {
		fmt.Fprintln(os.Stderr, "scangen: -checkpoint needs a single -circuit run (suite circuits would fight over the file)")
		os.Exit(2)
	}
	ort, err := oc.Build(rc.Resume)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scangen:", err)
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Collapse = !*noCollapse
	cfg.SkipBaseline = *noBaseline
	if *adiOrder {
		cfg.Order = compact.OrderADI
	}
	cfg.Chains = *chains
	cfg.Workers = *workers
	cfg.Control = ctl
	cfg.Obs = ort.Observer()

	switch {
	case *circuit != "":
		runSingle(*circuit, cfg, *doCompact, *printSeq, *outFile, rc.Checkpoint)
	case *suite != "":
		runSuite(*suite, cfg, *verbose)
	default:
		fmt.Fprintln(os.Stderr, "scangen: need -circuit NAME or -suite small|medium|full")
		flag.Usage()
		os.Exit(2)
	}
	if s := ort.Summary(); s != nil {
		if out := report.ObsSummary(*s); out != "" {
			fmt.Println()
			fmt.Print(out)
		}
	}
	if err := ort.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "scangen:", err)
		os.Exit(1)
	}
}

func runSingle(name string, cfg core.Config, doCompact, printSeq bool, outFile, ckptFile string) {
	cfg.SkipCompaction = !doCompact
	row, art, err := core.RunGenerate(name, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scangen:", err)
		os.Exit(1)
	}
	fmt.Printf("circuit %s: %d inputs, %d state variables, %d faults\n",
		row.Circ, row.Inp, row.Stvr, row.Faults)
	fmt.Printf("detected %d (%.2f%%), %d via scan knowledge\n", row.Detected, row.FCov, row.Funct)
	fmt.Printf("test length %d (%d scan vectors)\n", row.TestLen, row.TestScan)
	if doCompact && row.RestorLen > 0 {
		fmt.Printf("after restoration: %d (%d scan)\n", row.RestorLen, row.RestorScan)
		fmt.Printf("after omission:    %d (%d scan)\n", row.OmitLen, row.OmitScan)
		if row.ExtDet > 0 {
			fmt.Printf("extra faults detected by compaction: %d\n", row.ExtDet)
		}
	}
	if row.BaselineCycles > 0 {
		fmt.Printf("conventional-scan baseline: %d cycles\n", row.BaselineCycles)
	}
	// A stopped run may not have reached compaction; fall back to the
	// best sequence that exists.
	best := art.Raw
	if doCompact && art.Omitted != nil {
		best = art.Omitted
	}
	if outFile != "" {
		if err := os.WriteFile(outFile, []byte(best.String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "scangen:", err)
			os.Exit(1)
		}
		fmt.Printf("sequence written to %s\n", outFile)
	}
	if printSeq {
		title := fmt.Sprintf("Test sequence for %s_scan (Table 1 style)", name)
		if doCompact && art.Omitted != nil {
			title = fmt.Sprintf("Compacted test sequence for %s_scan (Table 4 style)", name)
		}
		fmt.Println()
		fmt.Print(report.SequenceTable(art.Scan, best, title))
		fmt.Printf("\nscan_sel=1 run lengths: %v (chain length %d)\n",
			report.ScanRuns(art.Scan, best), art.Scan.MaxLen())
	}
	if cfg.Control != nil {
		fmt.Println(report.RunBanner(row.Status, ckptFile))
	}
}

func runSuite(which string, cfg core.Config, verbose bool) {
	var names []string
	switch which {
	case "small":
		names = core.SmallSuite
	case "medium":
		names = core.MediumSuite
	case "full":
		names = core.FullSuite
	default:
		fmt.Fprintf(os.Stderr, "scangen: unknown suite %q\n", which)
		os.Exit(2)
	}
	prog := core.Progress{}
	if verbose {
		prog.Log = os.Stderr
	}
	rows, err := core.RunGenerateSuite(names, cfg, prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scangen:", err)
		os.Exit(1)
	}
	fmt.Print(report.Table5(rows))
	fmt.Println()
	fmt.Print(report.Table6(rows))
}
