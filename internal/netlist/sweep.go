package netlist

// Sweep is a second topological order of a circuit's gates, laid out
// for the full-sweep simulator. Gates of one type sit together in runs,
// so an evaluator switches on the gate type once per run instead of
// once per gate, and each gate's operands are stored flat in schedule
// order, so the inner loop does not chase Gate.In. Build computes it
// once per circuit; it is read-only afterwards and shared by every
// simulator of the circuit.
type Sweep struct {
	// Gates lists every gate index once, each after every gate driving
	// one of its inputs.
	Gates []int32
	// Pos is the inverse of Gates: Pos[g] is the position of gate g.
	Pos []int32
	// Ops holds, per position, the gate's output and first two inputs;
	// B repeats A for BUF and NOT.
	Ops []SweepOp
	// Runs partitions the positions, in order, into maximal stretches of
	// gates that share a type and whether they are wide.
	Runs []SweepRun
}

// SweepOp is the operands of one scheduled gate.
type SweepOp struct{ Out, A, B SignalID }

// SweepRun is the schedule positions [Lo, Hi), all holding gates of
// type Type. Wide runs hold gates with more than two inputs, whose
// operands do not fit a SweepOp.
type SweepRun struct {
	Type   GateType
	Wide   bool
	Lo, Hi int32
}

// buildSweep schedules the gates greedily: of the gates whose drivers
// are all scheduled, it picks the kind (type and wideness) with the
// most, ties going to the lower kind, and takes gates of that kind
// until none is ready, including gates the run itself makes ready.
// Each pick forms one run.
func (c *Circuit) buildSweep() {
	n := len(c.Gates)
	const nTypes = len(gateTypeNames)
	// indeg counts a gate's distinct gate-driven input signals, the
	// edges fanoutGates lists.
	indeg := make([]int32, n)
	for s, sig := range c.Signals {
		if sig.Kind == KindGate {
			for _, gj := range c.fanoutGates[s] {
				indeg[gj]++
			}
		}
	}
	// Ready gates wait in one FIFO list per kind, linked through next.
	next := make([]int32, n)
	var head, tail [2 * nTypes]int32
	var count [2 * nTypes]int
	for k := range head {
		head[k] = -1
	}
	push := func(gi int32) {
		g := &c.Gates[gi]
		k := int(g.Type)
		if len(g.In) > 2 {
			k += nTypes
		}
		next[gi] = -1
		if head[k] < 0 {
			head[k] = gi
		} else {
			next[tail[k]] = gi
		}
		tail[k] = gi
		count[k]++
	}
	for gi := range c.Gates {
		if indeg[gi] == 0 {
			push(int32(gi))
		}
	}
	sw := Sweep{
		Gates: make([]int32, 0, n),
		Pos:   make([]int32, n),
		Ops:   make([]SweepOp, 0, n),
	}
	for len(sw.Gates) < n {
		best := 0
		for k := range count {
			if count[k] > count[best] {
				best = k
			}
		}
		lo := int32(len(sw.Gates))
		for head[best] >= 0 {
			gi := head[best]
			head[best] = next[gi]
			count[best]--
			g := &c.Gates[gi]
			sw.Pos[gi] = int32(len(sw.Gates))
			sw.Gates = append(sw.Gates, gi)
			op := SweepOp{Out: g.Out, A: g.In[0], B: g.In[0]}
			if len(g.In) > 1 {
				op.B = g.In[1]
			}
			sw.Ops = append(sw.Ops, op)
			for _, gj := range c.fanoutGates[g.Out] {
				if indeg[gj]--; indeg[gj] == 0 {
					push(gj)
				}
			}
		}
		g := &c.Gates[sw.Gates[lo]]
		sw.Runs = append(sw.Runs, SweepRun{Type: g.Type, Wide: len(g.In) > 2, Lo: lo, Hi: int32(len(sw.Gates))})
	}
	c.Sweep = sw
}
