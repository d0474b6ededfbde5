package seqatpg

import (
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/transition"
)

// TransitionResult reports transition-fault test generation.
type TransitionResult struct {
	// Sequence is the generated test sequence for C_scan.
	Sequence logic.Sequence
	// DetectedAt[i] is the detecting vector index for transition fault
	// i, or sim.NotDetected.
	DetectedAt []int
}

// NumDetected counts detected transition faults.
func (r TransitionResult) NumDetected() int {
	n := 0
	for _, t := range r.DetectedAt {
		if t != sim.NotDetected {
			n++
		}
	}
	return n
}

// GenerateTransition runs the Section 2 forward search against the
// gross-delay transition fault model: the candidate-vector fitness and
// the flush-to-scan-out mechanism carry over unchanged (they operate on
// value planes, not on the fault model), while the PODEM oracles —
// which only understand stuck-at faults — are disabled. A transition
// fault needs consecutive at-speed cycles exercising both values of its
// site, which the search discovers through the same effect-latching
// reward.
func GenerateTransition(sc *scan.Circuit, faults []transition.Fault, opts Options) TransitionResult {
	opts = opts.withDefaults()
	c := sc.ScanCircuit()
	s := sim.NewSimulator(c, opts.Workers)
	inject := func(m *sim.Machine, i int, mask uint64) error {
		return m.InjectTransitionFault(faults[i].Signal, faults[i].SlowToRise, mask)
	}
	mgr := newManager(s, len(faults), inject)
	defer mgr.Close()
	rng := logic.NewRandFiller(opts.Seed ^ 0x7452414E)
	a := newAttempter(sc, opts, s)
	defer a.close()

	var seq logic.Sequence
	for pass := 0; pass < opts.Passes; pass++ {
		for fi := range faults {
			if mgr.Detected(fi) {
				continue
			}
			// A pseudo stuck-at fault carries the focus signal for
			// the candidate fitness; injection installs the real
			// transition fault.
			focus := fault.Fault{Site: fault.Site{Signal: faults[fi].Signal, Gate: -1, Pin: -1, FF: -1}}
			injectAll := func(m *sim.Machine) error { return inject(m, fi, sim.AllSlots) }
			sub, _, ok := a.attemptWith(focus, injectAll, mgr.GoodState(), mgr.FaultyState(fi), nil, nil, rng)
			if !ok {
				continue
			}
			seq = append(seq, sub...)
			mgr.AppendSequence(sub)
		}
	}
	return TransitionResult{Sequence: seq, DetectedAt: mgr.DetectedAt}
}
