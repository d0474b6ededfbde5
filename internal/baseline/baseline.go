// Package baseline implements a conventional "second approach" scan
// test generator with static test-set compaction, standing in for the
// comparator of the paper's Tables 6 and 7 (reference [26], Pomeranz &
// Reddy, TCAD 2002 — see DESIGN.md, "Substitutions").
//
// Tests have the classic form (SI, T): the state SI is loaded with a
// complete scan operation, the primary input sequence T is applied, and
// the final state is scanned out (overlapped with the next test's
// scan-in). Faults are observed at primary outputs during T and through
// the final scan-out. Test application takes Σ(N_SV + |T_i|) + N_SV
// clock cycles — the "cyc" column the paper compares against.
package baseline

import (
	"repro/internal/combatpg"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/translate"
)

// Options tunes the baseline generator.
type Options struct {
	// Seed drives random fills and candidate vectors.
	Seed uint64
	// Workers is the fault-simulation worker count (0 = GOMAXPROCS).
	// The generated test set is identical for every value.
	Workers int
}

// podemBacktracks bounds each state-assigning PODEM call; the per-frame
// calls of the greedy extension get half as many.
const podemBacktracks = 100

// maxExtension bounds how many functional vectors may follow the first
// one in a test, on a circuit with nff flip-flops.
func maxExtension(nff int) int { return max(nff, 4) }

// Result reports baseline generation.
type Result struct {
	// Tests is the compacted conventional test set.
	Tests []translate.ScanTest
	// DetectedBy[i] is the index (into Tests) of the test detecting
	// fault i, or -1.
	DetectedBy []int
	// Cycles is the conventional test application time.
	Cycles int
}

// NumDetected counts detected faults.
func (r Result) NumDetected() int {
	n := 0
	for _, d := range r.DetectedBy {
		if d >= 0 {
			n++
		}
	}
	return n
}

// Generate produces a compacted conventional scan test set for circuit
// c (the original, non-scan circuit) and fault list faults.
func Generate(c *netlist.Circuit, faults []fault.Fault, opts Options) Result {
	s := sim.NewSimulator(c, opts.Workers)
	extension := maxExtension(c.NumFFs())
	rng := logic.NewRandFiller(opts.Seed ^ 0x5DEECE66D)
	full := combatpg.NewGenerator(c, combatpg.Options{
		AssignState:   true,
		ObservePPO:    true,
		MaxBacktracks: podemBacktracks,
	})

	detected := make([]int, len(faults))
	for i := range detected {
		detected[i] = -1
	}
	var tests []translate.ScanTest

	for fi := range faults {
		if detected[fi] >= 0 {
			continue
		}
		r := full.Generate(faults[fi])
		if r.Status != combatpg.Success {
			continue
		}
		r.State.FillX(rng)
		r.Vector.FillX(rng)
		test := translate.ScanTest{SI: r.State, T: logic.Sequence{r.Vector}}

		// Greedy extension: append functional vectors while they
		// increase the number of faults this test detects ("second
		// approach": several primary input vectors between scans).
		prev := s.RunScanTest(test.SI, test.T, faults, detected)
		frame := combatpg.NewGenerator(c, combatpg.Options{
			ObservePPO:    true,
			MaxBacktracks: podemBacktracks / 2,
		})
		for ext := 0; ext < extension; ext++ {
			cand := nextVector(s, test, faults, detected, prev, frame, rng)
			trial := translate.ScanTest{SI: test.SI, T: append(test.T.Clone(), cand)}
			got := s.RunScanTest(trial.SI, trial.T, faults, detected)
			if len(got) <= len(prev) {
				break
			}
			test = trial
			prev = got
		}

		ti := len(tests)
		tests = append(tests, test)
		for _, di := range prev {
			detected[di] = ti
		}
	}

	tests, detected = reverseOrderCompact(s, tests, faults, detected)
	return Result{
		Tests:      tests,
		DetectedBy: detected,
		Cycles:     translate.Cycles(tests, c.NumFFs()),
	}
}

// nextVector proposes the next functional vector for a test: a PODEM
// solution for some still-undetected fault from the state the test has
// reached, or a random vector when PODEM has nothing to offer.
func nextVector(s *sim.Simulator, test translate.ScanTest, faults []fault.Fault, detected []int, already []int, frame *combatpg.Generator, rng *logic.RandFiller) logic.Vector {
	c := s.Circuit()
	state := stateAfter(s, test)
	frame.SetStates(state, nil)
	seen := make(map[int]bool, len(already))
	for _, fi := range already {
		seen[fi] = true
	}
	tried := 0
	for fi := range faults {
		if detected[fi] >= 0 || seen[fi] {
			continue
		}
		if tried++; tried > 25 {
			break
		}
		if r := frame.Generate(faults[fi]); r.Status == combatpg.Success {
			r.Vector.FillX(rng)
			return r.Vector
		}
	}
	v := make(logic.Vector, c.NumInputs())
	for i := range v {
		v[i] = rng.Next()
	}
	return v
}

// stateAfter simulates the fault-free circuit through the test and
// returns the reached state.
func stateAfter(s *sim.Simulator, test translate.ScanTest) []logic.Value {
	m := s.Acquire()
	defer s.Release(m)
	m.SetStateBroadcast(test.SI)
	for _, v := range test.T {
		m.Step(v)
	}
	return m.StateSlot(0)
}

// reverseOrderCompact drops tests that detect nothing the remaining
// tests do not, processing in reverse generation order (later tests
// were generated for harder faults and tend to cover earlier ones).
func reverseOrderCompact(s *sim.Simulator, tests []translate.ScanTest, faults []fault.Fault, detected []int) ([]translate.ScanTest, []int) {
	needed := make([]int, len(faults))
	for i := range needed {
		if detected[i] >= 0 {
			needed[i] = -1 // must be covered, not yet assigned
		} else {
			needed[i] = -2 // never covered; ignore
		}
	}
	keep := make([]bool, len(tests))
	for ti := len(tests) - 1; ti >= 0; ti-- {
		skip := make([]int, len(faults))
		for i := range skip {
			if needed[i] == -1 {
				skip[i] = -1 // simulate
			} else {
				skip[i] = 0 // skip
			}
		}
		det := s.RunScanTest(tests[ti].SI, tests[ti].T, faults, skip)
		if len(det) == 0 {
			continue
		}
		keep[ti] = true
		for _, fi := range det {
			needed[fi] = ti
		}
	}
	var outTests []translate.ScanTest
	remap := make(map[int]int, len(tests))
	for ti, k := range keep {
		if k {
			remap[ti] = len(outTests)
			outTests = append(outTests, tests[ti])
		}
	}
	outDet := make([]int, len(faults))
	for i := range outDet {
		outDet[i] = -1
		if needed[i] >= 0 {
			outDet[i] = remap[needed[i]]
		}
	}
	return outTests, outDet
}
