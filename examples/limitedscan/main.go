// Limited-scan study: why eliminating the scan/functional distinction
// pays off.
//
// For one benchmark circuit this example contrasts three ways of
// applying tests:
//
//  1. conventional complete-scan testing (every scan operation shifts
//     the whole chain);
//  2. the same conventional test set translated into a flat C_scan
//     sequence and compacted — complete scans become limited scans;
//  3. native Section 2 generation on C_scan plus compaction.
//
// It prints the scan_sel=1 run-length histograms, which show limited
// scan operations (runs shorter than the chain) appearing as soon as
// the distinction is dropped.
//
// Run with:
//
//	go run ./examples/limitedscan [circuit]
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	scanatpg "repro"
	"repro/internal/report"
)

func main() {
	name := "s298"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	c, err := scanatpg.LoadBenchmark(name)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := scanatpg.InsertScan(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s, chain length %d\n\n", name, sc.MaxLen())

	origFaults := scanatpg.Faults(c, true)
	scanFaults := scanatpg.Faults(sc.Scan, true)

	// 1. Conventional testing: every scan operation is complete.
	base := scanatpg.GenerateBaseline(c, origFaults, scanatpg.BaselineOptions{Seed: 1})
	fmt.Printf("1. conventional complete-scan testing: %d tests, %d cycles\n",
		len(base.Tests), base.Cycles)
	fmt.Printf("   every scan operation shifts all %d positions\n\n", sc.MaxLen())

	// 2. Translate the same tests and compact.
	translated, err := scanatpg.Translate(sc, base.Tests, 7)
	if err != nil {
		log.Fatal(err)
	}
	compacted, _ := scanatpg.Compact(sc, translated, scanFaults, scanatpg.CompactOptions{})
	fmt.Printf("2. translated + compacted: %d cycles (%.0f%% of conventional)\n",
		len(compacted), 100*float64(len(compacted))/float64(base.Cycles))
	printRuns(sc, compacted)

	// 3. Native generation on C_scan and compaction.
	gen := scanatpg.Generate(sc, scanFaults, scanatpg.GenerateOptions{Seed: 1})
	native, _ := scanatpg.Compact(sc, gen.Sequence, scanFaults, scanatpg.CompactOptions{})
	fmt.Printf("\n3. native C_scan generation + compaction: %d cycles (%.0f%% of conventional)\n",
		len(native), 100*float64(len(native))/float64(base.Cycles))
	printRuns(sc, native)
}

func printRuns(sc *scanatpg.ScanCircuit, seq scanatpg.Sequence) {
	runs := report.ScanRuns(sc, seq)
	var lens []int
	for l := range runs {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	limited := 0
	fmt.Print("   scan_sel=1 runs: ")
	for _, l := range lens {
		fmt.Printf("len %d ×%d  ", l, runs[l])
		if l < sc.MaxLen() {
			limited += runs[l]
		}
	}
	fmt.Printf("\n   limited scan operations (run < %d): %d\n", sc.MaxLen(), limited)
}
