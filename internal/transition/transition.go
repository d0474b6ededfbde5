// Package transition implements a gross-delay transition fault model on
// top of the simulation machine: slow-to-rise faults delay rising
// transitions of a signal by one clock cycle, slow-to-fall faults delay
// falling ones.
//
// Transition faults are what at-speed scan testing (the topic of the
// paper's comparator [26]) targets. They need vector *pairs* applied in
// consecutive at-speed cycles — which conventional scan testing must
// arrange with special launch/capture timing, but which the paper's
// representation provides for free: every vector of a C_scan test
// sequence is applied in its own functional clock cycle, so transitions
// are launched and captured continuously. This package grades the
// stuck-at test sequences the library generates for that bonus
// transition coverage.
package transition

import (
	"fmt"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Fault is one gross-delay transition fault on a signal stem.
type Fault struct {
	Signal     netlist.SignalID
	SlowToRise bool
}

// Name renders the fault, e.g. "G10 STR" or "G10 STF".
func (f Fault) Name(c *netlist.Circuit) string {
	kind := "STF"
	if f.SlowToRise {
		kind = "STR"
	}
	return fmt.Sprintf("%s %s", c.SignalName(f.Signal), kind)
}

// Universe returns the transition fault list: slow-to-rise and
// slow-to-fall on every signal stem.
func Universe(c *netlist.Circuit) []Fault {
	out := make([]Fault, 0, 2*len(c.Signals))
	for s := range c.Signals {
		sig := netlist.SignalID(s)
		out = append(out,
			Fault{Signal: sig, SlowToRise: true},
			Fault{Signal: sig, SlowToRise: false})
	}
	return out
}

// Result reports transition fault simulation: first detection cycle per
// fault, or sim.NotDetected.
type Result struct {
	DetectedAt []int
}

// NumDetected counts detected faults.
func (r Result) NumDetected() int {
	n := 0
	for _, t := range r.DetectedAt {
		if t != sim.NotDetected {
			n++
		}
	}
	return n
}

// Coverage returns the percentage of faults detected.
func (r Result) Coverage() float64 {
	if len(r.DetectedAt) == 0 {
		return 100
	}
	return 100 * float64(r.NumDetected()) / float64(len(r.DetectedAt))
}

// InjectBatch clears m's faults and injects batch[k] into slot k, the
// transition-fault counterpart of sim.Machine.InjectBatch.
func InjectBatch(m *sim.Machine, batch []Fault) {
	m.ClearFaults()
	for k, f := range batch {
		if err := m.InjectTransitionFault(f.Signal, f.SlowToRise, uint64(1)<<uint(k)); err != nil {
			panic(err) // sites chain per polarity; cannot fail
		}
	}
}

// Run fault-simulates seq against the transition faults, 64 at a time,
// with the same lockstep early-exit structure as the stuck-at
// simulator. Detection requires a definite mismatch at a primary
// output.
func Run(c *netlist.Circuit, seq logic.Sequence, faults []Fault) Result {
	res := Result{DetectedAt: make([]int, len(faults))}
	for i := range res.DetectedAt {
		res.DetectedAt[i] = sim.NotDetected
	}
	if len(seq) == 0 || len(faults) == 0 {
		return res
	}
	s := sim.NewSimulator(c, 1)
	good := s.Acquire()
	rows := make([][]logic.Value, len(seq))
	for t, v := range seq {
		good.Step(v)
		rows[t] = good.OutputRow()
	}
	s.Release(good)
	s.ForEachBatch(len(faults), func(m *sim.Machine, lo, hi int) {
		InjectBatch(m, faults[lo:hi])
		m.Reset()
		all := sim.AllSlots >> uint(sim.Slots-(hi-lo))
		var detected uint64
		for t, v := range seq {
			m.Step(v)
			newly := m.OutputDiff(rows[t]) &^ detected & all
			for d := newly; d != 0; d &= d - 1 {
				res.DetectedAt[lo+bits.TrailingZeros64(d)] = t
			}
			detected |= newly
			if detected == all {
				break
			}
		}
	})
	return res
}
