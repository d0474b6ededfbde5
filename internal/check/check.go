// Package check validates the invariants that tie the library's pieces
// together: sequences must fit their circuit, generation results must
// be reproducible by independent simulation, compaction must preserve
// detection, and translation must be cycle-neutral. The experiment
// flows and the test suite both lean on these checks, and scansim can
// apply them to externally supplied artifacts.
package check

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
	"repro/internal/translate"
)

// Netlist validates the structural invariants of a built circuit:
// every net has exactly one driver consistent with its kind, gate
// inputs are in range, and the evaluation order is a complete
// topological order (so evaluation can neither hang nor read
// uninitialized values). netlist.Builder.Build enforces these for
// circuits built through it; Netlist re-checks them for circuits
// assembled by hand or mutated after construction, returning a clear
// error — undriven net, multiply-driven net, combinational loop —
// before levelized evaluation is attempted.
func Netlist(c *netlist.Circuit) error {
	n := len(c.Signals)
	// A gate (or flip-flop) whose output signal records a different
	// driver means two drivers claim the same net; check that before
	// the per-signal pass so the corruption is named for what it is.
	for gi, g := range c.Gates {
		if int(g.Out) < 0 || int(g.Out) >= n {
			return fmt.Errorf("check: gate %d output signal %d out of range", gi, g.Out)
		}
		out := c.Signals[g.Out]
		if out.Kind == netlist.KindGate && out.Driver < 0 {
			return fmt.Errorf("check: undriven net %q (gate %d not recorded as its driver)", out.Name, gi)
		}
		if out.Kind != netlist.KindGate || int(out.Driver) != gi {
			return fmt.Errorf("check: net %q multiply driven (gate %d and %s %d)",
				out.Name, gi, out.Kind, out.Driver)
		}
		for pin, in := range g.In {
			if int(in) < 0 || int(in) >= n {
				return fmt.Errorf("check: gate %d input pin %d reads signal %d of %d", gi, pin, in, n)
			}
		}
	}
	for fi, ff := range c.FFs {
		if int(ff.Q) < 0 || int(ff.Q) >= n || int(ff.D) < 0 || int(ff.D) >= n {
			return fmt.Errorf("check: flip-flop %d references signals outside the circuit", fi)
		}
		if q := c.Signals[ff.Q]; q.Kind != netlist.KindFF || int(q.Driver) != fi {
			return fmt.Errorf("check: net %q multiply driven (flip-flop %d and %s %d)",
				q.Name, fi, q.Kind, q.Driver)
		}
	}
	for id, s := range c.Signals {
		switch s.Kind {
		case netlist.KindInput:
			if s.Driver != -1 {
				return fmt.Errorf("check: input %q has driver index %d, want -1", s.Name, s.Driver)
			}
		case netlist.KindGate:
			if s.Driver < 0 {
				return fmt.Errorf("check: undriven net %q", s.Name)
			}
			if int(s.Driver) >= len(c.Gates) {
				return fmt.Errorf("check: net %q names gate %d of %d", s.Name, s.Driver, len(c.Gates))
			}
			if int(c.Gates[s.Driver].Out) != id {
				return fmt.Errorf("check: net %q undriven (gate %d drives another net)", s.Name, s.Driver)
			}
		case netlist.KindFF:
			if s.Driver < 0 || int(s.Driver) >= len(c.FFs) {
				return fmt.Errorf("check: net %q names flip-flop %d of %d", s.Name, s.Driver, len(c.FFs))
			}
			if int(c.FFs[s.Driver].Q) != id {
				return fmt.Errorf("check: net %q undriven (flip-flop %d drives another net)", s.Name, s.Driver)
			}
		default:
			return fmt.Errorf("check: net %q has unknown kind %v", s.Name, s.Kind)
		}
	}
	// Order must list every gate exactly once, each after all gates
	// driving its inputs; a short or cyclic order is a combinational
	// loop (or a truncated levelization) and would hang or misevaluate.
	if len(c.Order) != len(c.Gates) {
		return fmt.Errorf("check: evaluation order covers %d of %d gates (combinational loop?)",
			len(c.Order), len(c.Gates))
	}
	pos := make([]int, len(c.Gates))
	for i := range pos {
		pos[i] = -1
	}
	for i, gi := range c.Order {
		if int(gi) < 0 || int(gi) >= len(c.Gates) {
			return fmt.Errorf("check: evaluation order entry %d names gate %d of %d", i, gi, len(c.Gates))
		}
		if pos[gi] >= 0 {
			return fmt.Errorf("check: gate %d appears twice in the evaluation order", gi)
		}
		pos[gi] = i
	}
	for gi, g := range c.Gates {
		for _, in := range g.In {
			if c.Signals[in].Kind != netlist.KindGate {
				continue
			}
			if pos[c.Signals[in].Driver] > pos[gi] {
				return fmt.Errorf("check: gate %d evaluated before its driver %d (combinational loop?)",
					gi, c.Signals[in].Driver)
			}
		}
	}
	return nil
}

// Sequence validates structural properties of a test sequence for a
// circuit: consistent vector widths matching the input count, and —
// when fullySpecified — no X values (a releasable tester sequence is
// always binary).
func Sequence(c *netlist.Circuit, seq logic.Sequence, fullySpecified bool) error {
	for t, v := range seq {
		if len(v) != c.NumInputs() {
			return fmt.Errorf("check: vector %d has width %d, circuit has %d inputs",
				t, len(v), c.NumInputs())
		}
		if fullySpecified && !v.Specified() {
			return fmt.Errorf("check: vector %d contains X values", t)
		}
		for i, x := range v {
			if x != logic.Zero && x != logic.One && x != logic.X {
				return fmt.Errorf("check: vector %d position %d holds invalid value %d", t, i, x)
			}
		}
	}
	return nil
}

// GenerateResult confirms every detection a generator claims by
// independent fault simulation of the final sequence. Claims the
// simulator cannot reproduce are protocol violations, not heuristic
// misses.
func GenerateResult(c *netlist.Circuit, res seqatpg.Result, faults []fault.Fault) error {
	if len(res.DetectedAt) != len(faults) {
		return fmt.Errorf("check: result covers %d faults, universe has %d", len(res.DetectedAt), len(faults))
	}
	ref := sim.Run(c, res.Sequence, faults, sim.Options{})
	for fi := range faults {
		if res.DetectedAt[fi] == sim.NotDetected {
			continue
		}
		if !ref.Detected(fi) {
			return fmt.Errorf("check: claimed detection of %s not reproduced", faults[fi].Name(c))
		}
		if res.DetectedAt[fi] < 0 || res.DetectedAt[fi] >= len(res.Sequence) {
			return fmt.Errorf("check: detection time %d of %s out of range", res.DetectedAt[fi], faults[fi].Name(c))
		}
	}
	for fi, isFunct := range res.Funct {
		if isFunct && res.DetectedAt[fi] == sim.NotDetected {
			return fmt.Errorf("check: fault %s marked funct but undetected", faults[fi].Name(c))
		}
	}
	return nil
}

// Compaction confirms the compacted sequence detects every fault the
// original detected and did not grow.
func Compaction(c *netlist.Circuit, before, after logic.Sequence, faults []fault.Fault) error {
	if len(after) > len(before) {
		return fmt.Errorf("check: compaction grew the sequence: %d -> %d", len(before), len(after))
	}
	b := sim.Run(c, before, faults, sim.Options{})
	a := sim.Run(c, after, faults, sim.Options{})
	for fi := range faults {
		if b.Detected(fi) && !a.Detected(fi) {
			return fmt.Errorf("check: compaction lost %s", faults[fi].Name(c))
		}
	}
	return nil
}

// Translation confirms a translated sequence is cycle-neutral for its
// test set and structurally sound for the design. completeScanCost is
// the cycles of one complete scan operation (chain length, or longest
// chain for a multi-chain design).
func Translation(sc *scan.Circuit, tests []translate.ScanTest, seq logic.Sequence, completeScanCost int) error {
	if want := translate.Cycles(tests, completeScanCost); len(seq) != want {
		return fmt.Errorf("check: translated length %d, conventional schedule %d", len(seq), want)
	}
	return Sequence(sc.ScanCircuit(), seq, true)
}

// ScanStructure validates a scan design's bookkeeping against its
// circuit: the select input exists, flush lengths are within range, and
// loading any state through the chain really establishes it.
func ScanStructure(sc *scan.Circuit) error {
	c := sc.ScanCircuit()
	if sc.SelPI < 0 || sc.SelPI >= c.NumInputs() {
		return fmt.Errorf("check: scan_sel position %d out of range", sc.SelPI)
	}
	if sc.NumStateVars() != c.NumFFs() {
		return fmt.Errorf("check: %d state variables vs %d flip-flops", sc.NumStateVars(), c.NumFFs())
	}
	for f := 0; f < c.NumFFs(); f++ {
		if fl := sc.FlushLength(f); fl < 0 || fl >= sc.NumStateVars() {
			return fmt.Errorf("check: flush length %d of flip-flop %d out of range", fl, f)
		}
	}
	// Load an alternating pattern and verify it lands.
	state := make([]logic.Value, sc.NumStateVars())
	for i := range state {
		state[i] = logic.Zero
		if i%2 == 1 {
			state[i] = logic.One
		}
	}
	seq, err := sc.ScanInSequence(state)
	if err != nil {
		return fmt.Errorf("check: scan-in rejected a full-width state: %v", err)
	}
	m := sim.New(c)
	for _, v := range seq {
		m.Step(v)
	}
	got := m.StateSlot(0)
	for i := range state {
		if got[i] != state[i] {
			return fmt.Errorf("check: scan-in left flip-flop %d at %v, want %v", i, got[i], state[i])
		}
	}
	return nil
}
