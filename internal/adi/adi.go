// Package adi computes the Accidental Detection Index of Pomeranz &
// Reddy's fault-ordering follow-up (PAPERS.md, arXiv 0710.4637): for
// every fault, the number of time steps of a sequence at which the
// fault is observable on a primary output. A fault with a low index is
// rarely detected by accident, so targeting it early makes the vectors
// kept for it cover many high-index faults for free; compaction uses
// the scores to reorder restoration targets (compact.OrderADI).
package adi

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Scores returns, for every fault, how many cycles of seq expose it on
// some primary output, plus the batch-step count of the work performed
// (same unit as sim.Result.BatchSteps). Unlike detection-oriented
// fault simulation there is no early exit — every cycle contributes —
// so the count is an observability profile of the whole sequence, and
// it is deterministic and identical for every worker count of s.
func Scores(s *sim.Simulator, seq logic.Sequence, faults []fault.Fault) ([]int, int64) {
	counts := make([]int, len(faults))
	if len(seq) == 0 || len(faults) == 0 {
		return counts, 0
	}
	// One fault-free pass records the reference output rows.
	good := s.Acquire()
	rows := make([][]logic.Value, len(seq))
	for t, v := range seq {
		good.Step(v)
		rows[t] = good.OutputRow()
	}
	s.Release(good)

	// Batches write disjoint counts ranges.
	s.ForEachBatch(len(faults), func(m *sim.Machine, lo, hi int) {
		m.InjectBatch(faults[lo:hi])
		m.Reset()
		for t, v := range seq {
			m.Step(v)
			for d := m.OutputDiff(rows[t]); d != 0; d &= d - 1 {
				counts[lo+bits.TrailingZeros64(d)]++
			}
		}
	})
	nBatches := (len(faults) + sim.Slots - 1) / sim.Slots
	return counts, int64(nBatches) * int64(len(seq))
}
