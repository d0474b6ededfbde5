// Command scantrans runs the paper's test set translation flow
// (Section 3) and the compaction of translated sequences, regenerating
// Tables 2, 3 and 7.
//
// Usage:
//
//	scantrans -circuit s27 -print-testset     # Table 2: conventional test set
//	scantrans -circuit s27 -print-translated  # Table 3: the flat sequence
//	scantrans -suite small                    # Table 7 over the small suite
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runctl"
)

func main() {
	var (
		circuit    = flag.String("circuit", "", "single catalog circuit to run")
		suite      = flag.String("suite", "", "run a whole suite: small, medium or full")
		seed       = flag.Uint64("seed", 1, "random seed")
		printSet   = flag.Bool("print-testset", false, "with -circuit: print the conventional test set")
		printTrans = flag.Bool("print-translated", false, "with -circuit: print the translated sequence")
		printFinal = flag.Bool("print-compacted", false, "with -circuit: print the compacted sequence")
		noCollapse = flag.Bool("no-collapse", false, "disable fault equivalence collapsing")
		engine     = flag.String("compact-engine", "auto", "restoration trial engine: auto, incremental or scratch (output identical)")
		adiOrder   = flag.Bool("adi-order", false, "restore faults in increasing accidental-detection-index order (changes the output)")
		verbose    = flag.Bool("v", false, "progress to stderr")
	)
	rc := runctl.RegisterFlags("scantrans")
	oc := obs.RegisterFlags("scantrans")
	flag.Parse()
	ctl, err := rc.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scantrans:", err)
		os.Exit(2)
	}
	if *suite != "" && ctl != nil && ctl.Store != nil {
		fmt.Fprintln(os.Stderr, "scantrans: -checkpoint needs a single -circuit run (suite circuits would fight over the file)")
		os.Exit(2)
	}
	ort, err := oc.Build(rc.Resume)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scantrans:", err)
		os.Exit(2)
	}

	eng, err := compact.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scantrans:", err)
		os.Exit(2)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Collapse = !*noCollapse
	cfg.Engine = eng
	if *adiOrder {
		cfg.Order = compact.OrderADI
	}
	cfg.Control = ctl
	cfg.Obs = ort.Observer()

	switch {
	case *circuit != "":
		row, art, err := core.RunTranslate(*circuit, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scantrans:", err)
			os.Exit(1)
		}
		fmt.Printf("circuit %s: %d conventional tests, %d cycles conventional application\n",
			row.Circ, len(art.Base.Tests), row.Cycles)
		fmt.Printf("translated length %d (%d scan vectors)\n", row.TestLen, row.TestScan)
		fmt.Printf("after restoration: %d (%d scan)\n", row.RestorLen, row.RestorScan)
		fmt.Printf("after omission:    %d (%d scan)\n", row.OmitLen, row.OmitScan)
		if *printSet {
			fmt.Println()
			fmt.Print(report.TestSetTable(art.Base.Tests,
				fmt.Sprintf("Conventional test set for %s_scan (Table 2 style)", row.Circ)))
		}
		if *printTrans {
			fmt.Println()
			fmt.Print(report.SequenceTable(art.Scan, art.Translated,
				fmt.Sprintf("Translated test sequence for %s_scan (Table 3 style)", row.Circ)))
		}
		if *printFinal {
			fmt.Println()
			fmt.Print(report.SequenceTable(art.Scan, art.Omitted,
				fmt.Sprintf("Compacted translated sequence for %s_scan", row.Circ)))
		}
		if ctl != nil {
			fmt.Println(report.RunBanner(row.Status, rc.Checkpoint))
		}
	case *suite != "":
		var names []string
		switch *suite {
		case "small":
			names = core.SmallSuite
		case "medium":
			names = core.MediumSuite
		case "full":
			names = core.FullSuite
		case "table7":
			names = core.Table7Suite
		default:
			fmt.Fprintf(os.Stderr, "scantrans: unknown suite %q\n", *suite)
			os.Exit(2)
		}
		prog := core.Progress{}
		if *verbose {
			prog.Log = os.Stderr
		}
		rows, err := core.RunTranslateSuite(names, cfg, prog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scantrans:", err)
			os.Exit(1)
		}
		fmt.Print(report.Table7(rows))
	default:
		fmt.Fprintln(os.Stderr, "scantrans: need -circuit NAME or -suite small|medium|full|table7")
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
		fmt.Fprintln(os.Stderr, "scantrans:", err)
		os.Exit(1)
	}
}
