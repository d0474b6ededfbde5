// Package translate implements the paper's Section 3: converting a
// conventional scan test set — tests of the form (SI, T) where SI is
// scanned in, T is a sequence of primary input vectors, and the final
// state is scanned out — into a single flat test sequence for C_scan in
// which scan operations are explicit vectors with scan_sel = 1.
//
// The scan-in of each test doubles as the scan-out of the previous one,
// exactly as in the paper's Table 3, and a trailing N_SV-vector block
// scans out the final state. Unspecified positions are filled with
// pseudo-random binary values.
package translate

import (
	"fmt"

	"repro/internal/combatpg"
	"repro/internal/logic"
	"repro/internal/scan"
)

// ScanTest is one conventional scan-based test (SI, T).
type ScanTest struct {
	// SI is the scanned-in state, SI[i] being the value flip-flop i
	// holds when the functional part of the test starts.
	SI logic.Vector
	// T is the primary input sequence applied after scan-in, over the
	// original circuit's inputs. It must contain at least one vector.
	T logic.Sequence
}

// FromFrameTests converts first-approach combinational tests (t_s, t_I)
// into scan tests with |T| = 1.
func FromFrameTests(tests []combatpg.Test) []ScanTest {
	out := make([]ScanTest, len(tests))
	for i, t := range tests {
		out[i] = ScanTest{SI: t.State.Clone(), T: logic.Sequence{t.Vector.Clone()}}
	}
	return out
}

// Cycles returns the number of clock cycles conventional application of
// the test set takes: a complete scan-in per test (overlapped with the
// previous test's scan-out) plus the functional vectors, plus the final
// scan-out. nsv is the cost of one complete scan operation — the chain
// length for a single chain, the longest chain for multiple chains.
func Cycles(tests []ScanTest, nsv int) int {
	total := nsv // final scan-out
	for _, t := range tests {
		total += nsv + len(t.T)
	}
	return total
}

// Translate flattens the test set into one test sequence for sc.Scan.
// The result is guaranteed to detect every fault the conventional
// application of tests detects (the paper, Section 3); unspecified
// values are filled from seed.
func Translate(sc *scan.Circuit, tests []ScanTest, seed uint64) (logic.Sequence, error) {
	var seq logic.Sequence
	for ti, t := range tests {
		if len(t.SI) != sc.NumStateVars() {
			return nil, fmt.Errorf("translate: test %d: SI width %d, chain length %d", ti, len(t.SI), sc.NumStateVars())
		}
		if len(t.T) == 0 {
			return nil, fmt.Errorf("translate: test %d: empty primary input sequence", ti)
		}
		scanin, err := sc.ScanInSequence(t.SI)
		if err != nil {
			return nil, fmt.Errorf("translate: test %d: %w", ti, err)
		}
		seq = append(seq, scanin...)
		for _, v := range t.T {
			if len(v) != sc.Orig.NumInputs() {
				return nil, fmt.Errorf("translate: test %d: functional vector width %d, want %d",
					ti, len(v), sc.Orig.NumInputs())
			}
			seq = append(seq, sc.FunctionalVector(v))
		}
	}
	// Final scan-out with arbitrary scan inputs.
	seq = append(seq, sc.ScanOutSequence()...)
	seq.FillX(logic.NewRandFiller(seed))
	return seq, nil
}
