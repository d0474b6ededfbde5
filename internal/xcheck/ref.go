// Package xcheck is a seeded differential and metamorphic checking
// harness for the library's fault-simulation, compaction and
// translation engines. It cross-checks the production code paths
// against each other and against a small, deliberately naive reference
// simulator, over randomized workloads derived from a seed, and shrinks
// any violation to a minimized reproduction.
//
// The package is a correctness tool, not a benchmark: everything in it
// favors obviousness over speed. See docs/ALGORITHMS.md §12 for the list of
// invariants and cmd/xcheck for the command-line driver.
package xcheck

import (
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/translate"
)

// refMachine is the reference simulator: one scalar three-valued
// machine per (circuit, fault) pair. It is written independently of
// internal/sim — no bit-parallel planes, no batching, no fault-free
// trace sharing, no event queues — so that an agreement between the two
// is evidence, not tautology. One machine simulates one circuit copy;
// a nil fault gives the fault-free copy.
type refMachine struct {
	c     *netlist.Circuit
	flt   *fault.Fault
	state []logic.Value // flip-flop present-state values
	vals  []logic.Value // per-signal values of the current cycle
}

func newRefMachine(c *netlist.Circuit, flt *fault.Fault) *refMachine {
	m := &refMachine{
		c:     c,
		flt:   flt,
		state: make([]logic.Value, c.NumFFs()),
		vals:  make([]logic.Value, len(c.Signals)),
	}
	for i := range m.state {
		m.state[i] = logic.X
	}
	return m
}

// setState overwrites the flip-flop state (used to model an idealized
// scan load). Missing positions stay untouched.
func (m *refMachine) setState(s []logic.Value) {
	copy(m.state, s)
}

// forced reports the stuck value if the fault forces what readers of
// signal sig see (a stem fault on sig), else the given value.
func (m *refMachine) forced(sig netlist.SignalID, v logic.Value) logic.Value {
	if m.flt != nil && m.flt.Site.IsStem() && m.flt.Site.Signal == sig {
		return m.flt.SA
	}
	return v
}

// pinValue returns the value gate gi reads on input pin p, applying a
// branch fault sitting on exactly that pin.
func (m *refMachine) pinValue(gi int32, p int) logic.Value {
	v := m.vals[m.c.Gates[gi].In[p]]
	if m.flt != nil && m.flt.Site.Gate == gi && int(m.flt.Site.Pin) == p {
		return m.flt.SA
	}
	return v
}

// evalGate evaluates gate gi from the current signal values.
func (m *refMachine) evalGate(gi int32) logic.Value {
	g := m.c.Gates[gi]
	acc := m.pinValue(gi, 0)
	for p := 1; p < len(g.In); p++ {
		in := m.pinValue(gi, p)
		switch g.Type {
		case netlist.AND, netlist.NAND:
			acc = logic.And(acc, in)
		case netlist.OR, netlist.NOR:
			acc = logic.Or(acc, in)
		case netlist.XOR, netlist.XNOR:
			acc = logic.Xor(acc, in)
		}
	}
	switch g.Type {
	case netlist.NOT, netlist.NAND, netlist.NOR, netlist.XNOR:
		acc = acc.Not()
	}
	return acc
}

// step applies input vector v for one clock cycle: evaluate the
// combinational logic, sample the primary outputs, latch the next
// state. Short vectors read X on the missing inputs.
func (m *refMachine) step(v logic.Vector) []logic.Value {
	c := m.c
	for i, in := range c.Inputs {
		val := logic.X
		if i < len(v) {
			val = v[i]
		}
		m.vals[in] = m.forced(in, val)
	}
	for fi, ff := range c.FFs {
		m.vals[ff.Q] = m.forced(ff.Q, m.state[fi])
	}
	for _, gi := range c.Order {
		out := c.Gates[gi].Out
		m.vals[out] = m.forced(out, m.evalGate(gi))
	}
	outs := make([]logic.Value, c.NumOutputs())
	for i, o := range c.Outputs {
		outs[i] = m.vals[o]
	}
	for fi, ff := range c.FFs {
		nv := m.vals[ff.D]
		if m.flt != nil && m.flt.Site.FF == int32(fi) {
			nv = m.flt.SA
		}
		m.state[fi] = nv
	}
	return outs
}

// RefDetect simulates seq on two independent scalar machines (fault-free
// and with f injected), both from the all-X state, and returns the first
// cycle at which a primary output carries a binary value opposite to a
// binary fault-free value, or sim.NotDetected.
func RefDetect(c *netlist.Circuit, seq logic.Sequence, f fault.Fault) int {
	good := newRefMachine(c, nil)
	bad := newRefMachine(c, &f)
	for t, v := range seq {
		g := good.step(v)
		b := bad.step(v)
		for po := range g {
			if g[po].IsBinary() && b[po].IsBinary() && g[po] != b[po] {
				return t
			}
		}
	}
	return sim.NotDetected
}

// RefDetectAll runs RefDetect for every fault, one naive single-fault
// pass each.
func RefDetectAll(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault) []int {
	det := make([]int, len(faults))
	for i, f := range faults {
		det[i] = RefDetect(c, seq, f)
	}
	return det
}

// RefScanTest reports whether the conventional test (si, seq) detects
// fault f on two scalar machines: both load si fault-free, seq runs with
// detection on the primary outputs, and a binary final-state bit opposite
// to a binary fault-free bit is detected by the scan-out. Unlike
// ConventionalDetect, scan shifting is fault-free, which is the model
// sim.Simulator.RunScanTest grades.
func RefScanTest(c *netlist.Circuit, si logic.Vector, seq logic.Sequence, f fault.Fault) bool {
	good := newRefMachine(c, nil)
	bad := newRefMachine(c, &f)
	good.setState(si)
	bad.setState(si)
	differ := func(g, b []logic.Value) bool {
		for i := range g {
			if g[i].IsBinary() && b[i].IsBinary() && g[i] != b[i] {
				return true
			}
		}
		return false
	}
	for _, v := range seq {
		if differ(good.step(v), bad.step(v)) {
			return true
		}
	}
	return differ(good.state, bad.state)
}

// chainCorruptFF returns the flip-flop index from which scan shifting is
// corrupted by f, or -1 when shifting is clean. A stem fault on a
// flip-flop output forces everything read from that chain position; a
// branch fault on a flip-flop D pin forces everything latched into it.
// Faults on combinational gates or primary inputs never corrupt a shift:
// the scan multiplexers gate the functional path off with a binary
// scan_sel.
func chainCorruptFF(c *netlist.Circuit, f fault.Fault) int {
	if f.Site.FF >= 0 {
		return int(f.Site.FF)
	}
	if f.Site.IsStem() {
		return c.FFIndex(f.Site.Signal)
	}
	return -1
}

// ConventionalDetect reports whether the idealized conventional scan
// application of tests to circuit c detects fault f: per test, the
// scanned-in state is applied, the primary input sequence T runs with
// detection on the primary outputs, and the final state is scanned out
// with detection on any binary state bit opposite to a binary fault-free
// bit.
//
// The model is deliberately conservative (it under-approximates real
// conventional detection, never over-approximates it), so it is a sound
// lower bound for the paper's Section 3 guarantee that a translated
// sequence detects everything conventional application detects:
//
//   - scan-in: the faulty copy receives a corrupted load — every chain
//     position at or beyond a faulty flip-flop reads the stuck value,
//     exactly what shifting through the faulty position produces;
//   - scan-out: the observed faulty bit is the stuck value for every
//     position at or before the faulty flip-flop (the data shifts
//     through it on the way out), the latched state elsewhere.
func ConventionalDetect(c *netlist.Circuit, tests []translate.ScanTest, f fault.Fault) bool {
	j := chainCorruptFF(c, f)
	for _, test := range tests {
		good := newRefMachine(c, nil)
		bad := newRefMachine(c, &f)
		good.setState(test.SI)
		badSI := append([]logic.Value(nil), test.SI...)
		if j >= 0 {
			for k := j; k < len(badSI); k++ {
				badSI[k] = f.SA
			}
		}
		bad.setState(badSI)
		for _, v := range test.T {
			g := good.step(v)
			b := bad.step(v)
			for po := range g {
				if g[po].IsBinary() && b[po].IsBinary() && g[po] != b[po] {
					return true
				}
			}
		}
		for fi := range good.state {
			gv := good.state[fi]
			bv := bad.state[fi]
			if fi <= j {
				bv = f.SA
			}
			if gv.IsBinary() && bv.IsBinary() && gv != bv {
				return true
			}
		}
	}
	return false
}
