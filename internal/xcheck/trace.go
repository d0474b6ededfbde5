package xcheck

import (
	"fmt"
	"slices"

	"repro/internal/logic"
	"repro/internal/sim"
)

// traceTrials is the length of the trial chain checkTraceReuse runs.
const traceTrials = 16

// checkTraceReuse: one pooled Simulator runs a seeded chain of
// restoration-shaped trials over the workload's vectors, and every trial
// equals a cold simulator's run on DetectedAt and BatchSteps, at every
// worker count. Consecutive trials share a tail (and often a prefix), so
// the pooled runs build their fault-free traces by prefix seeding and
// tail splicing (docs/ALGORITHMS.md §1) where the cold runs step every
// vector. An omission-shaped chain then checks sim.Trace's edits
// (checkTraceEdits).
func checkTraceReuse(w *Workload) string {
	if len(w.Seq) == 0 || len(w.Faults) == 0 {
		return ""
	}
	for _, workers := range workerCounts() {
		rng := w.rng(6)
		s := sim.NewSimulator(w.Design.Scan, workers)
		cur := w.Seq[len(w.Seq)/2:]
		for trial := 0; trial < traceTrials; trial++ {
			faults, idx := w.Faults, []int(nil)
			if rng.Intn(2) == 0 {
				// Restoration's per-fault check runs one fault.
				fi := rng.Intn(len(w.Faults))
				faults, idx = w.Faults[fi:fi+1], []int{fi}
			}
			got := s.Run(cur, faults, sim.Options{})
			want := sim.NewSimulator(w.Design.Scan, 1).Run(cur, faults, sim.Options{})
			label := fmt.Sprintf("trace-reuse workers=%d trial=%d (%d vectors)", workers, trial, len(cur))
			if msg := w.diffDetAt(label, want.DetectedAt, got.DetectedAt, idx); msg != "" {
				return msg
			}
			if got.BatchSteps != want.BatchSteps {
				return fmt.Sprintf("%s: BatchSteps %d, cold %d", label, got.BatchSteps, want.BatchSteps)
			}
			cur = nextTrial(cur, w.Seq, rng)
		}
	}
	return checkTraceEdits(w)
}

// checkTraceEdits runs an omission-shaped chain through sim.Trace: each
// trial deletes a window below the previous one from the committed
// sequence, builds its trace with Edit and completes it, and is
// committed or dropped at random. Every trial trace's rows must equal a
// cold trace's.
func checkTraceEdits(w *Workload) string {
	rng := w.rng(11)
	s := sim.NewSimulator(w.Design.Scan, 1)
	cur := w.Seq
	good := s.NewTrace(cur)
	good.Complete()
	for trial, top := 0, len(cur); trial < traceTrials && top > 0; trial++ {
		lo := rng.Intn(top)
		hi := lo + 1 + rng.Intn(min(top-lo, 16))
		next := append(append(logic.Sequence{}, cur[:lo]...), cur[hi:]...)
		tr := good.Edit(next)
		tr.Complete()
		cold := sim.NewSimulator(w.Design.Scan, 1).NewTrace(next)
		cold.Complete()
		for p := range next {
			if !slices.Equal(tr.Row(p), cold.Row(p)) {
				return fmt.Sprintf("trace-edit trial=%d deleting [%d,%d) of %d vectors: row %d = %v, cold %v",
					trial, lo, hi, len(cur), p, tr.Row(p), cold.Row(p))
			}
		}
		if rng.Intn(2) == 0 {
			good, cur = tr, next
		}
		top = lo
	}
	return ""
}

// nextTrial derives the next trial sequence from cur: half the time a
// block of pool's vectors inserted in front of a kept tail, as vector
// restoration does, otherwise a middle window deleted (always, once cur
// is three times pool's length) or replaced by a block. The result never
// aliases cur's header.
func nextTrial(cur, pool logic.Sequence, rng *logic.RandFiller) logic.Sequence {
	lo := rng.Intn(len(pool))
	block := pool[lo:min(len(pool), lo+1+rng.Intn(16))]
	i := rng.Intn(len(cur))
	j := min(len(cur), i+1+rng.Intn(12))
	next := append(logic.Sequence{}, cur[:i]...)
	switch op := rng.Intn(4); {
	case j-i < len(cur) && (op == 2 || len(cur) >= 3*len(pool)): // delete cur[i:j]
		next = append(next, cur[j:]...)
	case op <= 1: // insert a block before the kept tail cur[i:]
		next = append(append(next, block...), cur[i:]...)
	default: // replace cur[i:j] by a block
		next = append(append(next, block...), cur[j:]...)
	}
	return next
}
