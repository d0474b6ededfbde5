// Package netlist provides a gate-level model of synchronous sequential
// circuits: typed combinational gates, D flip-flops, primary inputs and
// primary outputs, together with structural validation and levelization.
//
// The model is deliberately close to the ISCAS-89 benchmark view of a
// circuit: every net (signal) has exactly one driver — a primary input, a
// combinational gate output, or a flip-flop output — and any number of
// readers. Flip-flops are simple D-type registers clocked by an implicit
// single global clock; there is no explicit clock net.
package netlist

import (
	"fmt"
	"sort"
	"strings"
)

// GateType enumerates the supported combinational gate functions.
// All gates except NOT and BUF accept two or more inputs.
type GateType uint8

// Supported gate functions.
const (
	BUF GateType = iota
	NOT
	AND
	NAND
	OR
	NOR
	XOR
	XNOR
)

var gateTypeNames = [...]string{
	BUF:  "BUF",
	NOT:  "NOT",
	AND:  "AND",
	NAND: "NAND",
	OR:   "OR",
	NOR:  "NOR",
	XOR:  "XOR",
	XNOR: "XNOR",
}

// String returns the conventional upper-case name of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ParseGateType converts an upper-case gate name (as used in .bench
// files) into a GateType.
func ParseGateType(s string) (GateType, error) {
	for t, name := range gateTypeNames {
		if name == s {
			return GateType(t), nil
		}
	}
	return 0, fmt.Errorf("netlist: unknown gate type %q", s)
}

// SignalID identifies a net within a Circuit. Signals are densely
// numbered from 0.
type SignalID int32

// InvalidSignal is returned by lookups that find nothing.
const InvalidSignal SignalID = -1

// SignalKind says what drives a signal.
type SignalKind uint8

// Signal driver kinds.
const (
	KindInput SignalKind = iota // primary input
	KindGate                    // combinational gate output
	KindFF                      // flip-flop output (present-state variable)
)

func (k SignalKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindGate:
		return "gate"
	case KindFF:
		return "ff"
	}
	return fmt.Sprintf("SignalKind(%d)", uint8(k))
}

// Signal is one net of the circuit.
type Signal struct {
	Name   string
	Kind   SignalKind
	Driver int32 // index into Gates or FFs; -1 for primary inputs
}

// Gate is a combinational gate. Its output signal records the gate as
// driver; In lists the signals read, in pin order.
type Gate struct {
	Type GateType
	Out  SignalID
	In   []SignalID
}

// FF is a D flip-flop. Q is the output signal (present-state variable),
// D the signal feeding the data input (next-state variable).
type FF struct {
	Q SignalID
	D SignalID
}

// Circuit is an immutable synchronous sequential circuit. Build one with
// a Builder. The zero Circuit is not usable.
type Circuit struct {
	Name    string
	Signals []Signal
	Gates   []Gate
	FFs     []FF
	Inputs  []SignalID // primary inputs, in declaration order
	Outputs []SignalID // primary outputs, in declaration order

	// Order lists gate indices in a valid combinational evaluation
	// order (every gate appears after all gates driving its inputs).
	Order []int32
	// Level[g] is the logic level of gate g: 1 + max level of its
	// gate-driven inputs (inputs and flip-flop outputs are level 0).
	Level []int32
	// Sweep is a second evaluation order that groups gates of one type
	// into runs; see Sweep.
	Sweep Sweep

	byName map[string]SignalID
	// fanout[s] lists the reader pins of signal s.
	fanout [][]PinRef
	// fanoutGates[s] lists the distinct reader gates of signal s in
	// (level, index) order; see FanoutGates.
	fanoutGates [][]int32
}

// PinRef identifies one reading pin: input pin Pin of gate Gate, the D
// pin of a flip-flop (FF >= 0), or a primary output (PO >= 0). Exactly
// one of Gate/FF/PO is >= 0.
type PinRef struct {
	Gate int32 // gate index, or -1
	Pin  int32 // input pin within the gate, or -1
	FF   int32 // flip-flop index, or -1
	PO   int32 // index within Circuit.Outputs, or -1
}

// SignalByName looks up a signal by name.
func (c *Circuit) SignalByName(name string) (SignalID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// SignalName returns the name of signal s.
func (c *Circuit) SignalName(s SignalID) string { return c.Signals[s].Name }

// Fanout returns the reader pins of signal s. The returned slice must
// not be modified.
func (c *Circuit) Fanout(s SignalID) []PinRef { return c.fanout[s] }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.Inputs) }

// NumOutputs returns the number of primary outputs.
func (c *Circuit) NumOutputs() int { return len(c.Outputs) }

// NumFFs returns the number of flip-flops (state variables).
func (c *Circuit) NumFFs() int { return len(c.FFs) }

// NumGates returns the number of combinational gates.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// InputIndex returns the position of signal s within Inputs, or -1.
func (c *Circuit) InputIndex(s SignalID) int {
	for i, in := range c.Inputs {
		if in == s {
			return i
		}
	}
	return -1
}

// OutputIndex returns the position of signal s within Outputs, or -1.
func (c *Circuit) OutputIndex(s SignalID) int {
	for i, out := range c.Outputs {
		if out == s {
			return i
		}
	}
	return -1
}

// FFIndex returns the flip-flop index whose Q is signal s, or -1.
func (c *Circuit) FFIndex(s SignalID) int {
	if c.Signals[s].Kind != KindFF {
		return -1
	}
	return int(c.Signals[s].Driver)
}

// Stats summarizes circuit size.
type Stats struct {
	Inputs, Outputs, FFs, Gates, Signals int
	MaxLevel                             int
}

// Stats returns size statistics for the circuit.
func (c *Circuit) Stats() Stats {
	maxLevel := 0
	for _, l := range c.Level {
		if int(l) > maxLevel {
			maxLevel = int(l)
		}
	}
	return Stats{
		Inputs:   len(c.Inputs),
		Outputs:  len(c.Outputs),
		FFs:      len(c.FFs),
		Gates:    len(c.Gates),
		Signals:  len(c.Signals),
		MaxLevel: maxLevel,
	}
}

// Builder incrementally constructs a Circuit. Methods record errors
// internally; Build reports the first one.
type Builder struct {
	name    string
	signals []Signal
	gates   []Gate
	ffs     []FF
	inputs  []SignalID
	outputs []SignalID
	byName  map[string]SignalID
	pending map[string]SignalID // referenced but not yet driven
	driven  map[SignalID]bool
	err     error
}

// NewBuilder returns a Builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		byName:  make(map[string]SignalID),
		pending: make(map[string]SignalID),
		driven:  make(map[SignalID]bool),
	}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("netlist: "+format, args...)
	}
}

// ref returns the signal with the given name, creating an undriven
// placeholder if it does not exist yet.
func (b *Builder) ref(name string) SignalID {
	if id, ok := b.byName[name]; ok {
		return id
	}
	id := SignalID(len(b.signals))
	b.signals = append(b.signals, Signal{Name: name, Kind: KindGate, Driver: -1})
	b.byName[name] = id
	b.pending[name] = id
	return id
}

func (b *Builder) drive(name string, kind SignalKind, driver int32) SignalID {
	id := b.ref(name)
	if b.driven[id] {
		b.fail("signal %q driven twice", name)
		return id
	}
	b.driven[id] = true
	delete(b.pending, name)
	b.signals[id].Kind = kind
	b.signals[id].Driver = driver
	return id
}

// AddInput declares a primary input named name and returns its signal.
func (b *Builder) AddInput(name string) SignalID {
	id := b.drive(name, KindInput, -1)
	b.inputs = append(b.inputs, id)
	return id
}

// AddGate adds a gate of type t whose output net is named out and whose
// inputs are the named signals. It returns the output signal.
func (b *Builder) AddGate(t GateType, out string, in ...string) SignalID {
	switch t {
	case BUF, NOT:
		if len(in) != 1 {
			b.fail("gate %q: %v requires exactly 1 input, got %d", out, t, len(in))
		}
	default:
		if len(in) < 2 {
			b.fail("gate %q: %v requires at least 2 inputs, got %d", out, t, len(in))
		}
	}
	ins := make([]SignalID, len(in))
	for i, n := range in {
		ins[i] = b.ref(n)
	}
	gi := int32(len(b.gates))
	id := b.drive(out, KindGate, gi)
	b.gates = append(b.gates, Gate{Type: t, Out: id, In: ins})
	return id
}

// AddFF adds a D flip-flop whose output (present-state) net is named q
// and whose data input reads the signal named d. It returns the Q
// signal.
func (b *Builder) AddFF(q, d string) SignalID {
	fi := int32(len(b.ffs))
	id := b.drive(q, KindFF, fi)
	b.ffs = append(b.ffs, FF{Q: id, D: b.ref(d)})
	return id
}

// MarkOutput declares the signal named name as a primary output.
func (b *Builder) MarkOutput(name string) {
	b.outputs = append(b.outputs, b.ref(name))
}

// Build validates the circuit (every signal driven, no combinational
// cycles) and returns the finished, levelized Circuit.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.pending) > 0 {
		names := make([]string, 0, len(b.pending))
		for n := range b.pending {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("netlist: undriven signals: %v", names)
	}
	c := &Circuit{
		Name:    b.name,
		Signals: b.signals,
		Gates:   b.gates,
		FFs:     b.ffs,
		Inputs:  b.inputs,
		Outputs: b.outputs,
		byName:  b.byName,
	}
	if err := c.levelize(); err != nil {
		return nil, err
	}
	c.buildFanout()
	c.buildFanoutGates()
	c.buildSweep()
	return c, nil
}

// levelize computes a combinational evaluation order and gate levels,
// failing on combinational cycles.
func (c *Circuit) levelize() error {
	n := len(c.Gates)
	indeg := make([]int32, n)
	readers := make([][]int32, len(c.Signals))
	for gi, g := range c.Gates {
		for _, in := range g.In {
			if c.Signals[in].Kind == KindGate {
				indeg[gi]++
				readers[in] = append(readers[in], int32(gi))
			}
		}
	}
	c.Level = make([]int32, n)
	c.Order = make([]int32, 0, n)
	queue := make([]int32, 0, n)
	for gi := range c.Gates {
		if indeg[gi] == 0 {
			queue = append(queue, int32(gi))
			c.Level[gi] = 1
		}
	}
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		c.Order = append(c.Order, gi)
		for _, gj := range readers[c.Gates[gi].Out] {
			indeg[gj]--
			if lv := c.Level[gi] + 1; lv > c.Level[gj] {
				c.Level[gj] = lv
			}
			if indeg[gj] == 0 {
				queue = append(queue, int32(gj))
			}
		}
	}
	if len(c.Order) != n {
		return fmt.Errorf("netlist: circuit %q has a combinational cycle: %s", c.Name, strings.Join(c.cycle(indeg), " -> "))
	}
	return nil
}

// cycle names the output signals of one loop among the gates levelize
// left unordered (indeg > 0), in signal-flow order, repeating the first
// at the end. An unordered gate's in-degree counts the inputs driven by
// other unordered gates, so the walk from one such gate to the driver
// of such an input, and on, must revisit a gate.
func (c *Circuit) cycle(indeg []int32) []string {
	gi := int32(0)
	for indeg[gi] == 0 {
		gi++
	}
	pos := make(map[int32]int)
	var path []int32 // each gate reads the next one's output
	for {
		if j, seen := pos[gi]; seen {
			path = path[j:]
			break
		}
		pos[gi] = len(path)
		path = append(path, gi)
		for _, in := range c.Gates[gi].In {
			if sig := c.Signals[in]; sig.Kind == KindGate && indeg[sig.Driver] > 0 {
				gi = sig.Driver
				break
			}
		}
	}
	names := make([]string, 0, len(path)+1)
	for k := len(path) - 1; k >= 0; k-- {
		names = append(names, c.Signals[c.Gates[path[k]].Out].Name)
	}
	return append(names, names[0])
}

func (c *Circuit) buildFanout() {
	c.fanout = make([][]PinRef, len(c.Signals))
	for gi, g := range c.Gates {
		for pin, in := range g.In {
			c.fanout[in] = append(c.fanout[in], PinRef{Gate: int32(gi), Pin: int32(pin), FF: -1, PO: -1})
		}
	}
	for fi, ff := range c.FFs {
		c.fanout[ff.D] = append(c.fanout[ff.D], PinRef{Gate: -1, Pin: -1, FF: int32(fi), PO: -1})
	}
	for oi, out := range c.Outputs {
		c.fanout[out] = append(c.fanout[out], PinRef{Gate: -1, Pin: -1, FF: -1, PO: int32(oi)})
	}
}
