// Command xcheck runs the differential and metamorphic cross-checking
// harness (internal/xcheck) over seeded randomized workloads: it pits
// the event-driven kernel, the full-sweep kernel, the pooled Simulator
// at several worker counts and a naive scalar reference simulator
// against each other, and checks the compaction, checkpoint/resume and
// translation invariants listed in docs/ALGORITHMS.md §12.
//
// Usage:
//
//	xcheck -seeds 5 -circuits s27,b02,synth
//	xcheck -circuits all -duration 30s
//
// On a violation, xcheck shrinks the workload to a minimized
// reproduction (drop vectors, faults and tests greedily while the
// invariant still fails), prints it, and exits non-zero. A passing run
// prints the coverage summary and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/circuits"
	"repro/internal/xcheck"
)

func main() {
	var (
		circuitList = flag.String("circuits", "all", "comma-separated catalog names, or \"all\"; \"synth\" adds a seeded random circuit")
		seeds       = flag.Int("seeds", 1, "seeds per circuit")
		startSeed   = flag.Uint64("start-seed", 1, "first seed")
		duration    = flag.Duration("duration", 0, "soft wall-clock budget (0 = run everything); skipped workloads are reported")
		noShrink    = flag.Bool("no-shrink", false, "report violations without minimizing them")
		verbose     = flag.Bool("v", false, "log per-workload progress")
	)
	flag.Parse()

	var names []string
	if *circuitList == "all" {
		names = append(circuits.Names(), xcheck.SynthCircuit)
	} else {
		for _, n := range strings.Split(*circuitList, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "xcheck: no circuits selected")
		os.Exit(2)
	}

	cfg := xcheck.Config{
		Circuits:  names,
		Seeds:     *seeds,
		StartSeed: *startSeed,
		Duration:  *duration,
		Shrink:    !*noShrink,
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	start := time.Now()
	violations, sum := xcheck.Run(cfg)
	fmt.Printf("xcheck: %s (%d circuits, %d seeds, wall %v)\n",
		sum, len(names), *seeds, time.Since(start).Round(time.Millisecond))
	if sum.Skipped > 0 {
		fmt.Printf("xcheck: WARNING: coverage incomplete, %d workloads skipped on -duration\n", sum.Skipped)
	}
	if len(violations) == 0 {
		fmt.Println("xcheck: PASS")
		return
	}
	for i, v := range violations {
		fmt.Printf("\n--- violation %d of %d ---\n%s", i+1, len(violations), v.Repro())
	}
	fmt.Printf("\nxcheck: FAIL: %d violations\n", len(violations))
	os.Exit(1)
}
