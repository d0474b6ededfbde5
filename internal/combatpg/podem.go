// Package combatpg implements PODEM-style deterministic test generation
// on the combinational view of a synchronous sequential circuit: the
// flip-flop outputs are treated as pseudo primary inputs and the
// flip-flop data inputs as pseudo primary outputs.
//
// It serves two roles in the reproduction:
//
//   - the paper's "first approach" baseline, where a combinational test
//     (t_s, t_I) is generated per fault and applied with complete scan
//     operations;
//   - the deterministic per-frame vector oracle inside the sequential
//     generator of internal/seqatpg, where the present state is fixed
//     and only the primary inputs may be assigned.
package combatpg

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/testability"
)

// Status reports the outcome of one PODEM run.
type Status uint8

// PODEM outcomes.
const (
	// Success: the returned assignment detects the fault at an
	// observation point.
	Success Status = iota
	// Untestable: the search space was exhausted; no single-frame test
	// exists under the given options.
	Untestable
	// Abort: the backtrack limit was hit before a conclusion.
	Abort
)

func (s Status) String() string {
	switch s {
	case Success:
		return "success"
	case Untestable:
		return "untestable"
	case Abort:
		return "abort"
	}
	return "unknown"
}

// Options configures a PODEM run.
type Options struct {
	// MaxBacktracks bounds the search; 0 means the default (1000).
	MaxBacktracks int
	// AssignState allows decisions on pseudo primary inputs (the
	// flip-flop present-state values). Used by the first-approach
	// baseline where scan makes the whole state controllable.
	AssignState bool
	// FixedState supplies the present state when AssignState is
	// false. Positions at X are genuinely unknown and cannot be
	// assigned. Nil means all X.
	FixedState []logic.Value
	// FaultyState, when non-nil, supplies a present state for the
	// faulty circuit that differs from FixedState: the target fault's
	// history has already diverged (effects latched in flip-flops).
	// Only meaningful with AssignState false.
	FaultyState []logic.Value
	// ObservePPO counts a fault effect on a flip-flop data input as a
	// detection (scan makes the next state observable).
	ObservePPO bool
}

// Result is the outcome of Generate.
type Result struct {
	Status Status
	// Vector is the primary input assignment; X marks don't-cares.
	Vector logic.Vector
	// State is the pseudo primary input assignment (meaningful when
	// Options.AssignState; otherwise a copy of the fixed state).
	State logic.Vector
	// Backtracks is the number of backtracks performed.
	Backtracks int
	// FrontierGates is the number of gates the D-frontier search
	// examined: the fault's cone once per propagation objective.
	FrontierGates int
}

// Generator holds the per-circuit machinery so repeated PODEM calls
// reuse simulation state. Not safe for concurrent use.
type Generator struct {
	c    *netlist.Circuit
	m    *sim.Machine
	opts Options

	nPI, nFF int
	assign   []logic.Value // decision variables: PIs then PPIs
	// state is the present state imply applies: the PPI half of assign
	// under AssignState, otherwise the fixed state padded with X.
	state    logic.Vector
	obsDist  []int32 // static min distance to an observation point
	meas     *testability.Measures
	orderPos []int32 // per gate: its position in c.Order

	f       fault.Fault
	haveFlt bool
	// cone is a bitset over c.Order positions of the gates that can
	// hold a D-frontier gate for the current fault (see buildCone);
	// coneSize counts its members and stack is buildCone's worklist.
	cone     []uint64
	coneSize int
	stack    []netlist.SignalID
	frontier int // gates examined by propagateObjective this call
}

// faultSlot is the machine slot carrying the faulty circuit; slot 0 is
// fault-free.
const faultSlot = 1

// NewGenerator builds a PODEM generator for circuit c.
func NewGenerator(c *netlist.Circuit, opts Options) *Generator {
	if opts.MaxBacktracks <= 0 {
		opts.MaxBacktracks = 1000
	}
	g := &Generator{
		c:    c,
		m:    sim.New(c),
		opts: opts,
		nPI:  c.NumInputs(),
		nFF:  c.NumFFs(),
	}
	g.assign = make([]logic.Value, g.nPI+g.nFF)
	if opts.AssignState {
		g.state = g.assign[g.nPI:]
	} else {
		g.state = make(logic.Vector, g.nFF)
	}
	g.orderPos = make([]int32, len(c.Gates))
	for p, gi := range c.Order {
		g.orderPos[gi] = int32(p)
	}
	g.cone = make([]uint64, (len(c.Order)+63)/64)
	g.computeObsDist()
	g.meas = testability.Compute(c)
	return g
}

// computeObsDist computes, per signal, a static lower bound on the
// number of gates between the signal and the nearest observation point
// (primary output, plus flip-flop data inputs when ObservePPO). Used to
// pick D-frontier gates closest to an observation point.
func (g *Generator) computeObsDist() {
	const inf = int32(1 << 30)
	c := g.c
	dist := make([]int32, len(c.Signals))
	for i := range dist {
		dist[i] = inf
	}
	for _, o := range c.Outputs {
		dist[o] = 0
	}
	if g.opts.ObservePPO {
		for _, ff := range c.FFs {
			dist[ff.D] = 0
		}
	}
	// Relax backward over the evaluation order until fixpoint; the
	// combinational DAG needs one reverse pass.
	for iter := 0; iter < 2; iter++ {
		for i := len(c.Order) - 1; i >= 0; i-- {
			gate := c.Gates[c.Order[i]]
			d := dist[gate.Out]
			if d == inf {
				continue
			}
			for _, in := range gate.In {
				if d+1 < dist[in] {
					dist[in] = d + 1
				}
			}
		}
	}
	g.obsDist = dist
}

// Generate runs PODEM for fault f and returns the assignment found.
func (g *Generator) Generate(f fault.Fault) Result {
	if err := g.start(f); err != nil {
		return Result{Status: Untestable}
	}
	res := g.search()
	res.Vector = make(logic.Vector, g.nPI)
	copy(res.Vector, g.assign[:g.nPI])
	res.State = make(logic.Vector, g.nFF)
	copy(res.State, g.state)
	res.FrontierGates = g.frontier
	return res
}

// start injects fault f and resets the search: every decision variable
// at X, the fixed present state (X where FixedState is nil or short)
// and the fault's cone.
func (g *Generator) start(f fault.Fault) error {
	g.m.ClearFaults()
	if err := g.m.InjectFault(f, 1<<faultSlot); err != nil {
		return err
	}
	g.f = f
	g.haveFlt = true
	for i := range g.assign {
		g.assign[i] = logic.X
	}
	if !g.opts.AssignState {
		n := copy(g.state, g.opts.FixedState)
		for i := n; i < len(g.state); i++ {
			g.state[i] = logic.X
		}
	}
	g.buildCone()
	g.frontier = 0
	return nil
}

// buildCone collects the gates that can hold a D-frontier gate for the
// current fault: the combinational fanout of the fault site (for a
// branch fault, the reading gate and its fanout; a D-pin fault has
// none) and of every flip-flop whose faulty present state differs from
// the good one. Outside it slot 0 and the faulty slot carry equal
// planes after every imply, so no other gate has an effect input. The
// bitset keeps the cone in c.Order order, which propagateObjective's
// tie-break relies on.
func (g *Generator) buildCone() {
	clear(g.cone)
	g.coneSize = 0
	stack := g.stack[:0]
	site := g.f.Site
	switch {
	case site.IsStem():
		stack = append(stack, site.Signal)
	case site.Gate >= 0:
		stack = g.addConeGate(site.Gate, stack)
	}
	if g.opts.FaultyState != nil && !g.opts.AssignState {
		for i, v := range g.state {
			if g.opts.FaultyState[i] != v {
				stack = append(stack, g.c.FFs[i].Q)
			}
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, gi := range g.c.FanoutGates(s) {
			stack = g.addConeGate(gi, stack)
		}
	}
	g.stack = stack
}

// addConeGate adds gate gi to the cone and, the first time, pushes its
// output for expansion.
func (g *Generator) addConeGate(gi int32, stack []netlist.SignalID) []netlist.SignalID {
	p := g.orderPos[gi]
	bit := uint64(1) << uint(p&63)
	if g.cone[p>>6]&bit != 0 {
		return stack
	}
	g.cone[p>>6] |= bit
	g.coneSize++
	return append(stack, g.c.Gates[gi].Out)
}

type decision struct {
	v       int
	flipped bool
}

// search is the PODEM main loop.
func (g *Generator) search() Result {
	var stack []decision
	backtracks := 0
	for {
		g.imply()
		if g.detected() {
			return Result{Status: Success, Backtracks: backtracks}
		}
		obj, ok := g.objective()
		if ok {
			v, val, found := g.backtrace(obj.sig, obj.val)
			if found {
				stack = append(stack, decision{v: v})
				g.assign[v] = val
				continue
			}
		}
		// No objective achievable: backtrack.
		for {
			if len(stack) == 0 {
				return Result{Status: Untestable, Backtracks: backtracks}
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				g.assign[top.v] = g.assign[top.v].Not()
				backtracks++
				if backtracks >= g.opts.MaxBacktracks {
					return Result{Status: Abort, Backtracks: backtracks}
				}
				break
			}
			g.assign[top.v] = logic.X
			stack = stack[:len(stack)-1]
		}
	}
}

// SetStates updates the fixed present state and the optional divergent
// faulty state between Generate calls, so one Generator can serve every
// frame of a sequential search.
func (g *Generator) SetStates(good, faulty []logic.Value) {
	g.opts.FixedState = good
	g.opts.FaultyState = faulty
}

// imply performs full forward implication of the current assignment by
// simulating one frame: slot 0 fault-free, slot 1 with the fault.
func (g *Generator) imply() {
	if g.opts.FaultyState != nil && !g.opts.AssignState {
		g.m.SetStatePair(g.state, g.opts.FaultyState)
	} else {
		g.m.SetStateBroadcast(g.state)
	}
	g.m.Step(g.assign[:g.nPI])
}

// composite reads the (good, faulty) pair of a signal after imply.
func (g *Generator) composite(s netlist.SignalID) (gv, fv logic.Value) {
	z, o := g.m.SignalPlanes(s)
	gv = planeValue(z, o, 0)
	fv = planeValue(z, o, faultSlot)
	return gv, fv
}

func planeValue(z, o uint64, slot int) logic.Value {
	bit := uint64(1) << uint(slot)
	switch {
	case z&bit != 0 && o&bit != 0:
		return logic.X
	case o&bit != 0:
		return logic.One
	default:
		return logic.Zero
	}
}

func effect(gv, fv logic.Value) bool {
	return gv.IsBinary() && fv.IsBinary() && gv != fv
}

// detected reports whether the fault effect reaches an observation
// point under the current assignment.
func (g *Generator) detected() bool {
	for _, o := range g.c.Outputs {
		if effect(g.composite(o)) {
			return true
		}
	}
	if g.opts.ObservePPO {
		for fi, ff := range g.c.FFs {
			gv, fv := g.composite(ff.D)
			// A fault on this flip-flop's D pin lives beyond the
			// signal: the faulty latched value is the stuck value.
			if g.haveFlt && g.f.Site.FF == int32(fi) {
				fv = g.f.SA
			}
			if effect(gv, fv) {
				return true
			}
		}
	}
	return false
}

type objective struct {
	sig netlist.SignalID
	val logic.Value
}

// objective picks the next goal: advance the D-frontier gate nearest an
// observation point if effects are already present (possibly carried in
// from a divergent faulty state), otherwise excite the fault.
func (g *Generator) objective() (objective, bool) {
	if obj, ok := g.propagateObjective(); ok {
		return obj, true
	}
	site := g.f.Site
	gv, _ := g.composite(site.Signal)
	want := g.f.SA.Not()
	if gv == logic.X {
		return objective{sig: site.Signal, val: want}, true
	}
	// No D-frontier and the site cannot be (further) excited.
	return objective{}, false
}

// pairSlots selects slot 0 (fault-free) and the faulty slot in a plane.
const pairSlots = 1 | 1<<faultSlot

// propagateObjective finds the D-frontier gate closest to an observation
// point and returns a non-controlling assignment for one of its X
// inputs. Only the fault's cone can hold a D-frontier gate, and ties on
// the distance go to the first gate in c.Order.
func (g *Generator) propagateObjective() (objective, bool) {
	g.frontier += g.coneSize
	bestGate := int32(-1)
	var bestDist int32 = 1 << 30
	for w, word := range g.cone {
		for ; word != 0; word &= word - 1 {
			gi := g.c.Order[w<<6|bits.TrailingZeros64(word)]
			gate := &g.c.Gates[gi]
			// Skip a gate whose output is binary in both slots.
			if z, o := g.m.SignalPlanes(gate.Out); z&o&pairSlots == 0 {
				continue
			}
			if !g.gateHasEffectInput(gi, gate) {
				continue
			}
			if d := g.obsDist[gate.Out]; d < bestDist {
				bestDist = d
				bestGate = gi
			}
		}
	}
	if bestGate < 0 {
		return objective{}, false
	}
	gate := &g.c.Gates[bestGate]
	// Set an X input to the non-controlling value.
	for _, in := range gate.In {
		igv, _ := g.composite(in)
		if igv != logic.X {
			continue
		}
		return objective{sig: in, val: nonControlling(gate.Type)}, true
	}
	return objective{}, false
}

// gateHasEffectInput reports whether gate gi has a fault effect on one
// of its input pins: slot 0 and the faulty slot both binary and
// different. A branch fault on this very gate puts its stuck value on
// its pin in the faulty slot.
func (g *Generator) gateHasEffectInput(gi int32, gate *netlist.Gate) bool {
	for p, in := range gate.In {
		z, o := g.m.SignalPlanes(in)
		fz, fo := z>>faultSlot, o>>faultSlot
		if g.f.Site.Gate == gi && int(g.f.Site.Pin) == p {
			fz, fo = sim.ValuePlanes(g.f.SA)
		}
		if sim.DetectMask(z, o, fz, fo)&1 != 0 {
			return true
		}
	}
	return false
}

// nonControlling returns the value that lets an effect pass through a
// gate of type t (for XOR/XNOR any binary value works; 0 is used).
func nonControlling(t netlist.GateType) logic.Value {
	switch t {
	case netlist.AND, netlist.NAND:
		return logic.One
	case netlist.OR, netlist.NOR:
		return logic.Zero
	default:
		return logic.Zero
	}
}

// backtrace maps an objective (sig, val) to a decision on an unassigned
// input variable, following X paths through the logic.
func (g *Generator) backtrace(s netlist.SignalID, val logic.Value) (variable int, value logic.Value, ok bool) {
	c := g.c
	for {
		sig := c.Signals[s]
		switch sig.Kind {
		case netlist.KindInput:
			idx := c.InputIndex(s)
			if g.assign[idx] != logic.X {
				return 0, logic.X, false
			}
			return idx, val, true
		case netlist.KindFF:
			if !g.opts.AssignState {
				return 0, logic.X, false
			}
			idx := g.nPI + int(sig.Driver)
			if g.assign[idx] != logic.X {
				return 0, logic.X, false
			}
			return idx, val, true
		}
		gate := &c.Gates[sig.Driver]
		switch gate.Type {
		case netlist.BUF:
			s = gate.In[0]
		case netlist.NOT:
			s = gate.In[0]
			val = val.Not()
		case netlist.AND, netlist.NAND:
			if gate.Type == netlist.NAND {
				val = val.Not()
			}
			in, ok2 := g.pickXInput(gate, val == logic.Zero)
			if !ok2 {
				return 0, logic.X, false
			}
			s = in
			// val stays: 1 -> all inputs 1, 0 -> chosen input 0.
		case netlist.OR, netlist.NOR:
			if gate.Type == netlist.NOR {
				val = val.Not()
			}
			in, ok2 := g.pickXInput(gate, val == logic.One)
			if !ok2 {
				return 0, logic.X, false
			}
			s = in
		case netlist.XOR, netlist.XNOR:
			target := val
			if gate.Type == netlist.XNOR {
				target = target.Not()
			}
			// Choose an X input; required value is the parity of
			// the remaining inputs (X treated as 0) XOR target.
			var chosen netlist.SignalID = netlist.InvalidSignal
			parity := logic.Zero
			for _, in := range gate.In {
				igv, _ := g.composite(in)
				if igv == logic.X && chosen == netlist.InvalidSignal {
					chosen = in
					continue
				}
				if igv == logic.One {
					parity = parity.Not()
				}
			}
			if chosen == netlist.InvalidSignal {
				return 0, logic.X, false
			}
			s = chosen
			val = logic.Xor(target, parity)
		}
	}
}

// pickXInput selects an X-valued input of the gate using SCOAP
// controllability: when easiest is true (a controlling value on one
// input suffices) the cheapest input to control is chosen; otherwise
// the hardest (every input must eventually be set, and classic PODEM
// tackles the hardest first so conflicts surface early).
func (g *Generator) pickXInput(gate *netlist.Gate, easiest bool) (netlist.SignalID, bool) {
	// The value an input needs: controlling value when easiest, the
	// non-controlling value otherwise.
	var want logic.Value
	switch gate.Type {
	case netlist.AND, netlist.NAND:
		want = logic.Zero
		if !easiest {
			want = logic.One
		}
	case netlist.OR, netlist.NOR:
		want = logic.One
		if !easiest {
			want = logic.Zero
		}
	default:
		want = logic.Zero
	}
	best := netlist.InvalidSignal
	var bestCost int32
	for _, in := range gate.In {
		igv, _ := g.composite(in)
		if igv != logic.X {
			continue
		}
		cost := g.meas.CC0[in]
		if want == logic.One {
			cost = g.meas.CC1[in]
		}
		if best == netlist.InvalidSignal ||
			(easiest && cost < bestCost) || (!easiest && cost > bestCost) {
			best, bestCost = in, cost
		}
	}
	return best, best != netlist.InvalidSignal
}
