// Package sim implements three-valued (0/1/X) simulation of synchronous
// sequential circuits, bit-parallel over 64 slots, with stuck-at fault
// injection at stem and branch sites. It is the substrate for good-value
// simulation, fault simulation, test generation and test compaction.
//
// Encoding: each signal carries two 64-bit planes (zero, one). Bit k of
// zero means "in slot k the signal can be 0"; bit k of one means "can be
// 1". A slot with both bits set holds X; a slot with neither is invalid
// and never produced.
package sim

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Slots is the simulation width: the number of independent slots a
// Machine evaluates in parallel.
const Slots = 64

// AllSlots is a mask with every slot bit set.
const AllSlots = ^uint64(0)

// Machine simulates one circuit. It holds per-signal value planes, the
// flip-flop state, and the currently injected faults. A Machine is not
// safe for concurrent use; create one per goroutine.
type Machine struct {
	c *netlist.Circuit

	zero, one []uint64 // per signal, valid after a Step
	sz, so    []uint64 // per flip-flop: current state planes

	stemSA0, stemSA1 []uint64 // per signal
	pinSA0, pinSA1   []uint64 // per gate-input global pin
	ffSA0, ffSA1     []uint64 // per flip-flop D pin

	pinBase   []int32 // per gate: index of its pin 0 in pinSA0/pinSA1
	hasFaults bool
	injected  []fault.Fault
	// marks lists, ascending and without duplicates, the positions in
	// c.Sweep of the gates that carry an injection: a branch-pin fault,
	// a stem fault on the gate's output or a transition site on it.
	// Only marked gates take the fault-mask path (see eval).
	marks []int32

	// Transition (gross-delay) faults: slow-to-rise delays rising
	// transitions by one cycle (site value = AND of current and
	// previous driving value), slow-to-fall delays falling ones (OR).
	trans    []transSite
	transAt  []int32 // per signal: index into trans, or -1
	hasTrans bool

	// ev is the event-driven kernel's scratch state (see event.go),
	// allocated on first use and reused across batches.
	ev *eventScratch
}

type transSite struct {
	sig          netlist.SignalID
	slowToRise   bool
	mask         uint64
	prevZ, prevO uint64
	next         int32 // next site on the same signal, or -1
}

// New returns a Machine for circuit c with all flip-flops at X and no
// faults injected.
func New(c *netlist.Circuit) *Machine {
	nPins := 0
	pinBase := make([]int32, len(c.Gates))
	for gi, g := range c.Gates {
		pinBase[gi] = int32(nPins)
		nPins += len(g.In)
	}
	m := &Machine{
		c:       c,
		zero:    make([]uint64, len(c.Signals)),
		one:     make([]uint64, len(c.Signals)),
		sz:      make([]uint64, len(c.FFs)),
		so:      make([]uint64, len(c.FFs)),
		stemSA0: make([]uint64, len(c.Signals)),
		stemSA1: make([]uint64, len(c.Signals)),
		pinSA0:  make([]uint64, nPins),
		pinSA1:  make([]uint64, nPins),
		ffSA0:   make([]uint64, len(c.FFs)),
		ffSA1:   make([]uint64, len(c.FFs)),
		pinBase: pinBase,
	}
	m.Reset()
	return m
}

// Circuit returns the circuit being simulated.
func (m *Machine) Circuit() *netlist.Circuit { return m.c }

// Reset sets every flip-flop to X in every slot and forgets transition
// fault history. Injected faults are kept.
func (m *Machine) Reset() {
	for i := range m.sz {
		m.sz[i] = AllSlots
		m.so[i] = AllSlots
	}
	for i := range m.trans {
		m.trans[i].prevZ = AllSlots
		m.trans[i].prevO = AllSlots
	}
}

// InjectFault adds stuck-at fault f to the slots selected by mask. The
// same Machine can carry many faults at once (one per slot is the usual
// arrangement for parallel-fault simulation).
func (m *Machine) InjectFault(f fault.Fault, mask uint64) error {
	var sa0, sa1 *uint64
	gate := int32(-1) // the gate whose evaluation applies the masks
	site := f.Site
	switch {
	case site.IsStem():
		sa0, sa1 = &m.stemSA0[site.Signal], &m.stemSA1[site.Signal]
		gate = m.driverGate(site.Signal)
	case site.FF >= 0:
		sa0, sa1 = &m.ffSA0[site.FF], &m.ffSA1[site.FF]
	default:
		g := m.c.Gates[site.Gate]
		if site.Pin < 0 || int(site.Pin) >= len(g.In) {
			return fmt.Errorf("sim: fault pin %d out of range for gate %s", site.Pin, m.c.SignalName(g.Out))
		}
		if g.In[site.Pin] != site.Signal {
			return fmt.Errorf("sim: fault site signal mismatch on gate %s pin %d", m.c.SignalName(g.Out), site.Pin)
		}
		idx := m.pinBase[site.Gate] + site.Pin
		sa0, sa1 = &m.pinSA0[idx], &m.pinSA1[idx]
		gate = site.Gate
	}
	switch f.SA {
	case logic.Zero:
		*sa0 |= mask
	case logic.One:
		*sa1 |= mask
	default:
		return fmt.Errorf("sim: stuck-at value must be 0 or 1")
	}
	if gate >= 0 {
		m.mark(gate)
	}
	m.hasFaults = true
	m.injected = append(m.injected, f)
	return nil
}

// InjectTransitionFault adds a gross-delay transition fault on the stem
// of signal sig to the slots selected by mask: slow-to-rise when
// slowToRise, slow-to-fall otherwise. At most one transition fault per
// signal may be injected at a time (different slots of the same signal
// must share the polarity).
func (m *Machine) InjectTransitionFault(sig netlist.SignalID, slowToRise bool, mask uint64) error {
	if m.transAt == nil {
		m.transAt = make([]int32, len(m.c.Signals))
		for i := range m.transAt {
			m.transAt[i] = -1
		}
	}
	if t := m.transSite(sig, slowToRise); t != nil {
		t.mask |= mask
		m.hasFaults = true
		m.hasTrans = true
		return nil
	}
	// New site; chain it in front of any existing ones on this signal
	// (slots are disjoint, so application order does not matter).
	idx := int32(len(m.trans))
	m.trans = append(m.trans, transSite{
		sig:        sig,
		slowToRise: slowToRise,
		mask:       mask,
		prevZ:      AllSlots, // unknown history: previous value X
		prevO:      AllSlots,
		next:       m.transAt[sig],
	})
	m.transAt[sig] = idx
	if g := m.driverGate(sig); g >= 0 {
		m.mark(g)
	}
	m.hasFaults = true
	m.hasTrans = true
	return nil
}

// transSite returns the transition site of the given polarity on sig,
// or nil when there is none.
func (m *Machine) transSite(sig netlist.SignalID, slowToRise bool) *transSite {
	if m.transAt == nil {
		return nil
	}
	for ti := m.transAt[sig]; ti >= 0; ti = m.trans[ti].next {
		if t := &m.trans[ti]; t.slowToRise == slowToRise {
			return t
		}
	}
	return nil
}

// driverGate returns the index of the gate driving signal s, or -1 for
// primary inputs and flip-flop outputs.
func (m *Machine) driverGate(s netlist.SignalID) int32 {
	if sig := &m.c.Signals[s]; sig.Kind == netlist.KindGate {
		return sig.Driver
	}
	return -1
}

// mark adds gate g to the marked gates, keeping marks sorted by
// schedule position.
func (m *Machine) mark(g int32) {
	p := m.c.Sweep.Pos[g]
	if i, found := slices.BinarySearch(m.marks, p); !found {
		m.marks = slices.Insert(m.marks, i, p)
	}
}

// applyTrans applies a transition site's delay function to freshly
// computed stem planes and records them as the next cycle's history.
func (m *Machine) applyTrans(ti int32, z, o uint64) (uint64, uint64) {
	t := &m.trans[ti]
	var nz, no uint64
	if t.slowToRise {
		// Value = AND(current, previous): rising edges arrive late.
		nz = z | t.prevZ
		no = o & t.prevO
	} else {
		// Value = OR(current, previous): falling edges arrive late.
		nz = z & t.prevZ
		no = o | t.prevO
	}
	t.prevZ, t.prevO = z, o
	z = (z &^ t.mask) | (nz & t.mask)
	o = (o &^ t.mask) | (no & t.mask)
	return z, o
}

// maybeTrans applies the signal's transition sites, if any. Multiple
// sites on one signal occupy disjoint slot masks, so the application
// order is irrelevant.
func (m *Machine) maybeTrans(sig netlist.SignalID, z, o uint64) (uint64, uint64) {
	if !m.hasTrans {
		return z, o
	}
	for ti := m.transAt[sig]; ti >= 0; ti = m.trans[ti].next {
		z, o = m.applyTrans(ti, z, o)
	}
	return z, o
}

// InjectBatch clears every injected fault and injects faults[k] into
// slot k — the layout of one parallel-fault batch. The flip-flop state
// is left as it is. Injection errors mean a site inconsistent with the
// circuit, which fault.Universe never produces, so they panic.
func (m *Machine) InjectBatch(faults []fault.Fault) {
	m.ClearFaults()
	for k, f := range faults {
		if err := m.InjectFault(f, uint64(1)<<uint(k)); err != nil {
			panic(err)
		}
	}
}

// ClearFaults removes every injected fault, including transition
// faults.
func (m *Machine) ClearFaults() {
	m.marks = m.marks[:0]
	if m.hasTrans {
		for _, t := range m.trans {
			m.transAt[t.sig] = -1
		}
		m.trans = m.trans[:0]
		m.hasTrans = false
	}
	if !m.hasFaults {
		return
	}
	for _, f := range m.injected {
		site := f.Site
		switch {
		case site.IsStem():
			m.stemSA0[site.Signal] = 0
			m.stemSA1[site.Signal] = 0
		case site.FF >= 0:
			m.ffSA0[site.FF] = 0
			m.ffSA1[site.FF] = 0
		default:
			idx := m.pinBase[site.Gate] + site.Pin
			m.pinSA0[idx] = 0
			m.pinSA1[idx] = 0
		}
	}
	m.injected = m.injected[:0]
	m.hasFaults = false
}

// State is a snapshot of the flip-flop planes, used to save and restore
// the machine around trial simulation.
type State struct{ sz, so []uint64 }

// SaveState returns a copy of the current flip-flop state.
func (m *Machine) SaveState() State {
	s := State{sz: make([]uint64, len(m.sz)), so: make([]uint64, len(m.so))}
	copy(s.sz, m.sz)
	copy(s.so, m.so)
	return s
}

// SaveStateInto copies the current flip-flop state into s, reusing its
// backing arrays when they are already the right size. Use it for
// snapshot buffers that are overwritten repeatedly (SaveState would
// allocate fresh planes every time).
func (m *Machine) SaveStateInto(s *State) {
	if len(s.sz) != len(m.sz) || len(s.so) != len(m.so) {
		s.sz = make([]uint64, len(m.sz))
		s.so = make([]uint64, len(m.so))
	}
	copy(s.sz, m.sz)
	copy(s.so, m.so)
}

// RestoreState restores a snapshot taken with SaveState.
func (m *Machine) RestoreState(s State) {
	copy(m.sz, s.sz)
	copy(m.so, s.so)
}

// LoadSlot copies slot src of snapshot s into slot dst of the machine's
// flip-flop state; every other slot keeps its value.
func (m *Machine) LoadSlot(dst int, s *State, src int) {
	for i := range m.sz {
		m.sz[i] = copyBit(m.sz[i], dst, s.sz[i], src)
		m.so[i] = copyBit(m.so[i], dst, s.so[i], src)
	}
}

// CopySlot copies slot srcSlot of machine src into slot dst of m: the
// flip-flop state and the transition-site history, so a fault moved
// between machines goes on exactly as if it had stayed. A State holds
// no transition history, which is why LoadSlot cannot move a
// transition fault: its site would restart at X and could detect at a
// different time. m must already carry the fault meant for slot dst;
// each of m's transition sites covering dst takes the history of src's
// site on the same signal and polarity (X when src has none). Every
// other slot keeps its value.
func (m *Machine) CopySlot(dst int, src *Machine, srcSlot int) {
	for i := range m.sz {
		m.sz[i] = copyBit(m.sz[i], dst, src.sz[i], srcSlot)
		m.so[i] = copyBit(m.so[i], dst, src.so[i], srcSlot)
	}
	for ti := range m.trans {
		t := &m.trans[ti]
		if t.mask>>uint(dst)&1 == 0 {
			continue
		}
		z, o := AllSlots, AllSlots
		if st := src.transSite(t.sig, t.slowToRise); st != nil {
			z, o = st.prevZ, st.prevO
		}
		t.prevZ = copyBit(t.prevZ, dst, z, srcSlot)
		t.prevO = copyBit(t.prevO, dst, o, srcSlot)
	}
}

// copyBit returns w with bit dst replaced by bit src of v.
func copyBit(w uint64, dst int, v uint64, src int) uint64 {
	return w&^(1<<uint(dst)) | (v>>uint(src)&1)<<uint(dst)
}

// SetStateBroadcast sets every slot's state to vals (one value per
// flip-flop).
func (m *Machine) SetStateBroadcast(vals []logic.Value) {
	for i, v := range vals {
		m.sz[i], m.so[i] = broadcast(v)
	}
}

// SetStatePair sets slot 0 of every flip-flop to good[i] and every
// other slot to faulty[i]. Used when simulating a fault whose history
// has already diverged from the fault-free circuit (slot 0 fault-free,
// remaining slots faulty).
func (m *Machine) SetStatePair(good, faulty []logic.Value) {
	for i := range m.sz {
		gz, gd := broadcast(good[i])
		fz, fd := broadcast(faulty[i])
		m.sz[i] = (gz & 1) | (fz &^ 1)
		m.so[i] = (gd & 1) | (fd &^ 1)
	}
}

// StateSlot extracts the state of one slot as logic values.
func (m *Machine) StateSlot(slot int) []logic.Value {
	bit := uint64(1) << uint(slot)
	out := make([]logic.Value, len(m.sz))
	for i := range m.sz {
		out[i] = planesValue(m.sz[i], m.so[i], bit)
	}
	return out
}

// FFPlanes returns the state planes of flip-flop fi.
func (m *Machine) FFPlanes(fi int) (zero, one uint64) { return m.sz[fi], m.so[fi] }

// OutputPlanes returns the planes of primary output po after the last
// Step.
func (m *Machine) OutputPlanes(po int) (zero, one uint64) {
	s := m.c.Outputs[po]
	return m.zero[s], m.one[s]
}

// OutputSlot returns the value of primary output po in one slot.
func (m *Machine) OutputSlot(po, slot int) logic.Value {
	z, o := m.OutputPlanes(po)
	return planesValue(z, o, uint64(1)<<uint(slot))
}

// OutputRow returns slot 0's primary-output values after the last
// Step: the fault-free row when slot 0 carries no fault.
func (m *Machine) OutputRow() []logic.Value {
	row := make([]logic.Value, len(m.c.Outputs))
	for po := range row {
		row[po] = m.OutputSlot(po, 0)
	}
	return row
}

// OutputDiff returns the slots whose primary outputs after the last
// Step definitely differ from row: some output binary in row and binary
// and opposite in the slot.
func (m *Machine) OutputDiff(row []logic.Value) uint64 {
	var diff uint64
	for po, v := range row {
		if v.IsBinary() {
			gz, gd := broadcast(v)
			fz, fd := m.OutputPlanes(po)
			diff |= DetectMask(gz, gd, fz, fd)
		}
	}
	return diff
}

// StateDiff is OutputDiff for the flip-flop state: the slots whose
// latched state definitely differs from state (one value per
// flip-flop), which is what a scan-out observes.
func (m *Machine) StateDiff(state []logic.Value) uint64 {
	var diff uint64
	for fi, v := range state {
		if v.IsBinary() {
			gz, gd := broadcast(v)
			diff |= DetectMask(gz, gd, m.sz[fi], m.so[fi])
		}
	}
	return diff
}

// SignalPlanes returns the planes of an arbitrary signal after the last
// Step (combinational values; flip-flop outputs show the state that was
// current during that step).
func (m *Machine) SignalPlanes(s netlist.SignalID) (zero, one uint64) {
	return m.zero[s], m.one[s]
}

// Step applies vector v to the primary inputs of every slot and clocks
// the circuit once: combinational evaluation followed by the state
// update. Primary output planes remain readable until the next Step.
func (m *Machine) Step(v logic.Vector) {
	for i, in := range m.c.Inputs {
		val := logic.X
		if i < len(v) {
			val = v[i]
		}
		m.zero[in], m.one[in] = broadcast(val)
	}
	m.finishStep()
}

// StepMulti applies vecs[k] to slot k (slots beyond len(vecs) receive
// vecs[len-1]) and clocks the circuit once.
func (m *Machine) StepMulti(vecs []logic.Vector) {
	if len(vecs) == 0 {
		panic("sim: StepMulti with no vectors")
	}
	n := len(vecs)
	if n > Slots {
		n = Slots
	}
	last := vecs[len(vecs)-1]
	for i, in := range m.c.Inputs {
		var z, o uint64
		for k := 0; k < n; k++ {
			val := logic.X
			if i < len(vecs[k]) {
				val = vecs[k][i]
			}
			bit := uint64(1) << uint(k)
			switch val {
			case logic.Zero:
				z |= bit
			case logic.One:
				o |= bit
			default:
				z |= bit
				o |= bit
			}
		}
		if n < Slots {
			// Slots beyond the supplied vectors replicate the last one.
			rest := AllSlots << uint(n)
			val := logic.X
			if i < len(last) {
				val = last[i]
			}
			switch val {
			case logic.Zero:
				z |= rest
			case logic.One:
				o |= rest
			default:
				z |= rest
				o |= rest
			}
		}
		m.zero[in], m.one[in] = z, o
	}
	m.finishStep()
}

func (m *Machine) finishStep() {
	c := m.c
	if m.hasFaults {
		// Stem injection on primary inputs.
		for _, in := range c.Inputs {
			z, o := applyInj(m.zero[in], m.one[in], m.stemSA0[in], m.stemSA1[in])
			m.zero[in], m.one[in] = m.maybeTrans(in, z, o)
		}
		// Load flip-flop outputs with stem injection.
		for fi, ff := range c.FFs {
			z, o := applyInj(m.sz[fi], m.so[fi], m.stemSA0[ff.Q], m.stemSA1[ff.Q])
			m.zero[ff.Q], m.one[ff.Q] = m.maybeTrans(ff.Q, z, o)
		}
		m.eval()
		// Latch next state with D-pin injection.
		for fi, ff := range c.FFs {
			m.sz[fi], m.so[fi] = applyInj(m.zero[ff.D], m.one[ff.D], m.ffSA0[fi], m.ffSA1[fi])
		}
		return
	}
	for fi, ff := range c.FFs {
		m.zero[ff.Q], m.one[ff.Q] = m.sz[fi], m.so[fi]
	}
	m.eval()
	for fi, ff := range c.FFs {
		m.sz[fi], m.so[fi] = m.zero[ff.D], m.one[ff.D]
	}
}

// eval evaluates every gate, walking the circuit's Sweep run by run. A
// marked gate goes through evalMarked and its fault masks; the rest of
// a run goes through evalRun. An unmarked gate has zero pin masks, a
// zero output stem mask and no transition site, so injection is the
// identity for it and the clean evaluation is exact. A 64-fault batch
// marks at most 64 gates, so most of every faulty sweep runs at the
// fault-free price.
func (m *Machine) eval() {
	sw := &m.c.Sweep
	marks := m.marks
	for _, r := range sw.Runs {
		lo := r.Lo
		for len(marks) > 0 && marks[0] < r.Hi {
			p := marks[0]
			marks = marks[1:]
			if lo < p {
				m.evalRun(r, lo, p)
			}
			m.evalMarked(sw.Gates[p])
			lo = p + 1
		}
		if lo < r.Hi {
			m.evalRun(r, lo, r.Hi)
		}
	}
}

// evalRun evaluates schedule positions [lo, hi) of run r, which carry no
// fault masks: one switch on the run's type, then a loop over flat
// operands. Wide gates, whose extra inputs the operands do not hold,
// fold all their pins in evalMarked, which is exact for an unmarked
// gate.
func (m *Machine) evalRun(r netlist.SweepRun, lo, hi int32) {
	sw := &m.c.Sweep
	if r.Wide {
		for _, gi := range sw.Gates[lo:hi] {
			m.evalMarked(gi)
		}
		return
	}
	zero, one := m.zero, m.one
	ops := sw.Ops[lo:hi]
	switch r.Type {
	case netlist.BUF:
		for _, op := range ops {
			zero[op.Out], one[op.Out] = zero[op.A], one[op.A]
		}
	case netlist.NOT:
		for _, op := range ops {
			zero[op.Out], one[op.Out] = one[op.A], zero[op.A]
		}
	case netlist.AND:
		for _, op := range ops {
			zero[op.Out], one[op.Out] = zero[op.A]|zero[op.B], one[op.A]&one[op.B]
		}
	case netlist.NAND:
		for _, op := range ops {
			zero[op.Out], one[op.Out] = one[op.A]&one[op.B], zero[op.A]|zero[op.B]
		}
	case netlist.OR:
		for _, op := range ops {
			zero[op.Out], one[op.Out] = zero[op.A]&zero[op.B], one[op.A]|one[op.B]
		}
	case netlist.NOR:
		for _, op := range ops {
			zero[op.Out], one[op.Out] = one[op.A]|one[op.B], zero[op.A]&zero[op.B]
		}
	case netlist.XOR:
		for _, op := range ops {
			az, ao, bz, bo := zero[op.A], one[op.A], zero[op.B], one[op.B]
			zero[op.Out], one[op.Out] = (az&bz)|(ao&bo), (az&bo)|(ao&bz)
		}
	case netlist.XNOR:
		for _, op := range ops {
			az, ao, bz, bo := zero[op.A], one[op.A], zero[op.B], one[op.B]
			zero[op.Out], one[op.Out] = (az&bo)|(ao&bz), (az&bz)|(ao&bo)
		}
	}
}

// evalMarked evaluates gate gi applying its branch-pin masks, its
// output stem mask and any transition sites on its output. It folds
// every input pin, so it also serves wide gates.
func (m *Machine) evalMarked(gi int32) {
	g := &m.c.Gates[gi]
	base := m.pinBase[gi]
	z, o := m.readPin(g.In[0], base)
	switch g.Type {
	case netlist.BUF:
	case netlist.NOT:
		z, o = o, z
	case netlist.AND, netlist.NAND:
		for p := 1; p < len(g.In); p++ {
			bz, bo := m.readPin(g.In[p], base+int32(p))
			z |= bz
			o &= bo
		}
		if g.Type == netlist.NAND {
			z, o = o, z
		}
	case netlist.OR, netlist.NOR:
		for p := 1; p < len(g.In); p++ {
			bz, bo := m.readPin(g.In[p], base+int32(p))
			o |= bo
			z &= bz
		}
		if g.Type == netlist.NOR {
			z, o = o, z
		}
	case netlist.XOR, netlist.XNOR:
		for p := 1; p < len(g.In); p++ {
			bz, bo := m.readPin(g.In[p], base+int32(p))
			z, o = (z&bz)|(o&bo), (z&bo)|(o&bz)
		}
		if g.Type == netlist.XNOR {
			z, o = o, z
		}
	}
	z, o = applyInj(z, o, m.stemSA0[g.Out], m.stemSA1[g.Out])
	z, o = m.maybeTrans(g.Out, z, o)
	m.zero[g.Out], m.one[g.Out] = z, o
}

func (m *Machine) readPin(s netlist.SignalID, pin int32) (z, o uint64) {
	return applyInj(m.zero[s], m.one[s], m.pinSA0[pin], m.pinSA1[pin])
}

// applyInj forces slots selected by sa0 to 0 and slots selected by sa1
// to 1.
func applyInj(z, o, sa0, sa1 uint64) (uint64, uint64) {
	z = (z &^ sa1) | sa0
	o = (o &^ sa0) | sa1
	return z, o
}

// broadcast expands one logic value into full planes.
func broadcast(v logic.Value) (z, o uint64) {
	switch v {
	case logic.Zero:
		return AllSlots, 0
	case logic.One:
		return 0, AllSlots
	default:
		return AllSlots, AllSlots
	}
}

// ValuePlanes expands one logic value into full 64-slot planes — the
// broadcast encoding used throughout the simulator, exported for
// packages that compare single outputs against fault-free values
// (OutputDiff compares whole rows).
func ValuePlanes(v logic.Value) (zero, one uint64) { return broadcast(v) }

// planesValue extracts the value of one slot bit from planes.
func planesValue(z, o, bit uint64) logic.Value {
	switch {
	case z&bit != 0 && o&bit != 0:
		return logic.X
	case o&bit != 0:
		return logic.One
	default:
		return logic.Zero
	}
}

// DetectMask returns, per slot, whether the faulty planes (fz, fo)
// definitely differ from the good planes (gz, go): both values binary
// and opposite.
func DetectMask(gz, gd, fz, fd uint64) uint64 {
	goodIs0 := gz &^ gd
	goodIs1 := gd &^ gz
	faultIs0 := fz &^ fd
	faultIs1 := fd &^ fz
	return (goodIs0 & faultIs1) | (goodIs1 & faultIs0)
}
