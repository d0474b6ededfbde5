package combatpg

import (
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Test is one scan-based test under the paper's first approach: scan in
// State, apply Vector for one functional clock, scan out.
type Test struct {
	State  logic.Vector // t_s: the scanned-in state
	Vector logic.Vector // t_I: the primary input vector
}

// TestSetResult reports first-approach test generation over a fault
// list.
type TestSetResult struct {
	Tests []Test
	// DetectedBy[i] is the index of the test that detects fault i, or
	// -1 (undetected / aborted).
	DetectedBy []int
	// Aborted counts faults abandoned at the backtrack limit.
	Aborted int
	// Untestable counts faults proven combinationally untestable.
	Untestable int
}

// NumDetected counts detected faults.
func (r TestSetResult) NumDetected() int {
	n := 0
	for _, d := range r.DetectedBy {
		if d >= 0 {
			n++
		}
	}
	return n
}

// GenerateTestSet runs the first-approach flow on circuit c (the
// original, non-scan circuit): for every fault, PODEM with full state
// controllability and next-state observability; after each new test,
// single-frame fault simulation (sim.Simulator.RunScanTest) drops every
// further fault it detects. Don't-care positions are filled
// pseudo-randomly from seed.
func GenerateTestSet(c *netlist.Circuit, faults []fault.Fault, seed uint64) TestSetResult {
	gen := NewGenerator(c, Options{AssignState: true, ObservePPO: true})
	s := sim.NewSimulator(c, 1)
	rng := logic.NewRandFiller(seed)
	res := TestSetResult{DetectedBy: make([]int, len(faults))}
	for i := range res.DetectedBy {
		res.DetectedBy[i] = -1
	}
	for fi, f := range faults {
		if res.DetectedBy[fi] >= 0 {
			continue
		}
		r := gen.Generate(f)
		switch r.Status {
		case Untestable:
			res.Untestable++
			continue
		case Abort:
			res.Aborted++
			continue
		}
		r.State.FillX(rng)
		r.Vector.FillX(rng)
		ti := len(res.Tests)
		res.Tests = append(res.Tests, Test{State: r.State, Vector: r.Vector})
		// Drop every remaining fault the new test detects.
		for _, di := range s.RunScanTest(r.State, logic.Sequence{r.Vector}, faults, res.DetectedBy) {
			res.DetectedBy[di] = ti
		}
	}
	return res
}

// Untested returns the fault indices of r that no test detects.
func (r TestSetResult) Untested(faults []fault.Fault) []int {
	var out []int
	for i := range faults {
		if r.DetectedBy[i] < 0 {
			out = append(out, i)
		}
	}
	return out
}
