// Translating a legacy scan test set (the paper's Section 3).
//
// A first-approach combinational test set — one (scan-in state,
// vector) pair per fault, as classic scan ATPG produces — is flattened
// into a single test sequence for C_scan in which scan operations are
// explicit vectors, then compacted with procedures for non-scan
// circuits. The compacted sequence applies in fewer clock cycles than
// the conventional schedule even though it came from the very same
// tests.
//
// Run with:
//
//	go run ./examples/translate [circuit]
package main

import (
	"fmt"
	"log"
	"os"

	scanatpg "repro"
	"repro/internal/report"
)

func main() {
	name := "s344"
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

	// Step 1: a legacy first-approach test set on the original
	// circuit: full state controllability, |T| = 1 per test.
	origFaults := scanatpg.Faults(c, true)
	tests := scanatpg.FirstApproachTestSet(c, origFaults, 1)
	cycles := scanatpg.ConventionalCycles(tests, sc.MaxLen())
	fmt.Printf("legacy first-approach test set: %d tests\n", len(tests))
	fmt.Printf("conventional application: %d cycles (%d-cycle scan per test)\n\n",
		cycles, sc.MaxLen())
	if len(tests) <= 8 {
		fmt.Print(report.TestSetTable(tests, "test set"))
		fmt.Println()
	}

	// Step 2: translation into one flat C_scan sequence.
	seq, err := scanatpg.Translate(sc, tests, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("translated sequence: %d vectors (equals the conventional cycle count)\n", len(seq))

	// Step 3: compaction with non-scan procedures. Complete scan
	// operations may now shrink into limited ones.
	scanFaults := scanatpg.Faults(sc.Scan, true)
	restored, rst := scanatpg.Restore(sc, seq, scanFaults, scanatpg.CompactOptions{})
	omitted, ost := scanatpg.Omit(sc, restored, scanFaults, scanatpg.CompactOptions{})
	fmt.Printf("after vector restoration: %d vectors (%d targets)\n", len(restored), rst.TargetFaults)
	fmt.Printf("after vector omission:    %d vectors (%d trial simulations)\n", len(omitted), ost.Simulations)
	fmt.Printf("\ntest application time: %d -> %d cycles (%.0f%% saved) with the same test set\n",
		cycles, len(omitted), 100-100*float64(len(omitted))/float64(cycles))

	// Confidence check: the compacted sequence still detects at least
	// as many scan-circuit faults as the translated one.
	before := countDetected(scanatpg.Simulate(sc.Scan, seq, scanFaults))
	after := countDetected(scanatpg.Simulate(sc.Scan, omitted, scanFaults))
	fmt.Printf("detected faults on C_scan: %d before compaction, %d after\n", before, after)
}

func countDetected(times []int) int {
	n := 0
	for _, t := range times {
		if t >= 0 {
			n++
		}
	}
	return n
}
