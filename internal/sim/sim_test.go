package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

func mustParse(t *testing.T, text string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(text, "t")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// oneGate builds a circuit with one two-input gate of the given type.
func oneGate(t *testing.T, gt netlist.GateType) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("g")
	b.AddInput("a")
	b.AddInput("b")
	b.AddGate(gt, "y", "a", "b")
	b.MarkOutput("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// refGate computes the scalar three-valued gate function.
func refGate(gt netlist.GateType, a, b logic.Value) logic.Value {
	switch gt {
	case netlist.AND:
		return logic.And(a, b)
	case netlist.NAND:
		return logic.And(a, b).Not()
	case netlist.OR:
		return logic.Or(a, b)
	case netlist.NOR:
		return logic.Or(a, b).Not()
	case netlist.XOR:
		return logic.Xor(a, b)
	case netlist.XNOR:
		return logic.Xor(a, b).Not()
	}
	panic("bad gate")
}

func TestGateTruthTables(t *testing.T) {
	vals := []logic.Value{logic.Zero, logic.One, logic.X}
	types := []netlist.GateType{netlist.AND, netlist.NAND, netlist.OR, netlist.NOR, netlist.XOR, netlist.XNOR}
	for _, gt := range types {
		c := oneGate(t, gt)
		m := New(c)
		for _, a := range vals {
			for _, b := range vals {
				m.Step(logic.Vector{a, b})
				got := m.OutputSlot(0, 0)
				want := refGate(gt, a, b)
				if got != want {
					t.Errorf("%v(%v,%v) = %v, want %v", gt, a, b, got, want)
				}
				// All slots must agree under broadcast.
				if got63 := m.OutputSlot(0, 63); got63 != want {
					t.Errorf("%v slot63 = %v, want %v", gt, got63, want)
				}
			}
		}
	}
}

func TestNotBufGates(t *testing.T) {
	b := netlist.NewBuilder("nb")
	b.AddInput("a")
	b.AddGate(netlist.NOT, "n", "a")
	b.AddGate(netlist.BUF, "f", "a")
	b.MarkOutput("n")
	b.MarkOutput("f")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(c)
	for _, a := range []logic.Value{logic.Zero, logic.One, logic.X} {
		m.Step(logic.Vector{a})
		if m.OutputSlot(0, 0) != a.Not() {
			t.Errorf("NOT(%v) = %v", a, m.OutputSlot(0, 0))
		}
		if m.OutputSlot(1, 0) != a {
			t.Errorf("BUF(%v) = %v", a, m.OutputSlot(1, 0))
		}
	}
}

func TestSequentialToggle(t *testing.T) {
	c := mustParse(t, `
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(en, q)
`)
	m := New(c)
	// Unknown initial state: q stays X while toggling.
	m.Step(logic.Vector{logic.One})
	if got := m.OutputSlot(0, 0); got != logic.X {
		t.Fatalf("unknown state toggled to %v", got)
	}
	// Force the state to 0 by construction: en=X cannot reset; use
	// SetStateBroadcast to model a known reset.
	m.SetStateBroadcast([]logic.Value{logic.Zero})
	expect := []logic.Value{logic.Zero, logic.One, logic.Zero, logic.One}
	for i, want := range expect {
		m.Step(logic.Vector{logic.One})
		if got := m.OutputSlot(0, 0); got != want {
			t.Fatalf("cycle %d: q = %v, want %v", i, got, want)
		}
	}
	// After the toggles above the state is 0; en=0 holds it.
	m.Step(logic.Vector{logic.Zero})
	m.Step(logic.Vector{logic.Zero})
	if got := m.OutputSlot(0, 0); got != logic.Zero {
		t.Fatalf("hold failed: q = %v", got)
	}
}

func TestStepMultiPerSlotVectors(t *testing.T) {
	c := oneGate(t, netlist.AND)
	m := New(c)
	vecs := []logic.Vector{
		{logic.Zero, logic.Zero},
		{logic.Zero, logic.One},
		{logic.One, logic.Zero},
		{logic.One, logic.One},
	}
	m.StepMulti(vecs)
	want := []logic.Value{logic.Zero, logic.Zero, logic.Zero, logic.One}
	for k, w := range want {
		if got := m.OutputSlot(0, k); got != w {
			t.Errorf("slot %d = %v, want %v", k, got, w)
		}
	}
	// Slots beyond the provided vectors replicate the last vector.
	if got := m.OutputSlot(0, 60); got != logic.One {
		t.Errorf("slot 60 = %v, want replication of last vector", got)
	}
}

func TestFaultInjectionStem(t *testing.T) {
	c := oneGate(t, netlist.AND)
	m := New(c)
	y, _ := c.SignalByName("y")
	f := fault.Fault{Site: fault.Site{Signal: y, Gate: -1, Pin: -1, FF: -1}, SA: logic.One}
	if err := m.InjectFault(f, 1<<5); err != nil {
		t.Fatal(err)
	}
	m.Step(logic.Vector{logic.Zero, logic.Zero})
	if got := m.OutputSlot(0, 0); got != logic.Zero {
		t.Errorf("clean slot = %v, want 0", got)
	}
	if got := m.OutputSlot(0, 5); got != logic.One {
		t.Errorf("faulty slot = %v, want 1 (stuck-at-1)", got)
	}
	m.ClearFaults()
	m.Step(logic.Vector{logic.Zero, logic.Zero})
	if got := m.OutputSlot(0, 5); got != logic.Zero {
		t.Errorf("after ClearFaults slot = %v, want 0", got)
	}

	// ClearFaults must also drop transition sites and the gate marks
	// they set: a machine that carried transition faults on gate
	// outputs, then a stuck-at batch, steps bit-identically to a fresh
	// machine given the same batch.
	c2, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	used := New(c2)
	for k, gi := range []int{0, 3, 7, len(c2.Gates) - 1} {
		if err := used.InjectTransitionFault(c2.Gates[gi].Out, k%2 == 0, uint64(0xF)<<uint(4*k)); err != nil {
			t.Fatal(err)
		}
	}
	seq := randSeq(12, c2.NumInputs(), 21)
	for _, v := range seq[:4] {
		used.Step(v)
	}
	used.ClearFaults()
	used.Reset()
	fresh := New(c2)
	for k, f := range fault.Universe(c2, true)[:Slots] {
		for _, mm := range []*Machine{used, fresh} {
			if err := mm.InjectFault(f, uint64(1)<<uint(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for step, v := range seq {
		used.Step(v)
		fresh.Step(v)
		for s := range c2.Signals {
			uz, uo := used.SignalPlanes(netlist.SignalID(s))
			fz, fo := fresh.SignalPlanes(netlist.SignalID(s))
			if uz != fz || uo != fo {
				t.Fatalf("step %d signal %s: reused machine (%x,%x), fresh (%x,%x)",
					step, c2.SignalName(netlist.SignalID(s)), uz, uo, fz, fo)
			}
		}
		for fi := range c2.FFs {
			uz, uo := used.FFPlanes(fi)
			fz, fo := fresh.FFPlanes(fi)
			if uz != fz || uo != fo {
				t.Fatalf("step %d flip-flop %d: reused machine (%x,%x), fresh (%x,%x)", step, fi, uz, uo, fz, fo)
			}
		}
	}
}

func TestFaultInjectionBranchPin(t *testing.T) {
	// a fans out to NOT and AND; a SA1 on the AND pin only must leave
	// the NOT path clean.
	c := mustParse(t, `
INPUT(a)
OUTPUT(n)
OUTPUT(y)
n = NOT(a)
y = AND(a, a2)
INPUT(a2)
`)
	a, _ := c.SignalByName("a")
	var gi int32 = -1
	var pin int32
	for i, g := range c.Gates {
		if g.Type == netlist.AND {
			gi = int32(i)
			for p, in := range g.In {
				if in == a {
					pin = int32(p)
				}
			}
		}
	}
	m := New(c)
	f := fault.Fault{Site: fault.Site{Signal: a, Gate: gi, Pin: pin, FF: -1}, SA: logic.One}
	if err := m.InjectFault(f, 1); err != nil {
		t.Fatal(err)
	}
	m.Step(logic.Vector{logic.Zero, logic.One})
	if got := m.OutputSlot(0, 0); got != logic.One {
		t.Errorf("NOT path disturbed: n = %v, want 1", got)
	}
	if got := m.OutputSlot(1, 0); got != logic.One {
		t.Errorf("faulty AND = %v, want 1", got)
	}
}

func TestFaultInjectionFFPin(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(q)
q = DFF(a)
`)
	// Hmm: DFF input is a primary input directly; D-pin fault site.
	m := New(c)
	f := fault.Fault{Site: fault.Site{Signal: c.FFs[0].D, Gate: -1, Pin: -1, FF: 0}, SA: logic.Zero}
	if err := m.InjectFault(f, 1); err != nil {
		t.Fatal(err)
	}
	m.Step(logic.Vector{logic.One})
	m.Step(logic.Vector{logic.One})
	if got := m.OutputSlot(0, 0); got != logic.Zero {
		t.Errorf("FF D-pin SA0: q = %v, want 0", got)
	}
}

func TestSaveRestoreState(t *testing.T) {
	c := mustParse(t, `
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(en, q)
`)
	m := New(c)
	m.SetStateBroadcast([]logic.Value{logic.Zero})
	snap := m.SaveState()
	m.Step(logic.Vector{logic.One})
	m.Step(logic.Vector{logic.One})
	m.RestoreState(snap)
	m.Step(logic.Vector{logic.Zero})
	if got := m.OutputSlot(0, 0); got != logic.Zero {
		t.Errorf("restored state wrong: q = %v", got)
	}
}

// TestLoadSlot: LoadSlot sets the destination slot of every flip-flop
// to the source slot of the snapshot and leaves the other 63 slots
// bit-identical.
func TestLoadSlot(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	rng := logic.NewRandFiller(5)
	randomState := func() *Machine {
		m := New(c)
		vecs := make([]logic.Vector, Slots)
		for step := 0; step < 6; step++ {
			for k := range vecs {
				vecs[k] = logic.NewVector(c.NumInputs())
				for j := range vecs[k] {
					vecs[k][j] = logic.Value(rng.Intn(3))
				}
			}
			m.StepMulti(vecs)
		}
		return m
	}
	m := randomState()
	snap := randomState().SaveState()
	for _, tc := range []struct{ dst, src int }{{0, 63}, {63, 0}, {17, 17}, {40, 3}} {
		before := m.SaveState()
		m.LoadSlot(tc.dst, &snap, tc.src)
		changed := false
		for fi := range c.FFs {
			for slot := 0; slot < Slots; slot++ {
				from, bit := before, uint(slot)
				if slot == tc.dst {
					from, bit = snap, uint(tc.src)
				}
				wz, wo := from.sz[fi]>>bit&1, from.so[fi]>>bit&1
				gz, gdo := m.sz[fi]>>uint(slot)&1, m.so[fi]>>uint(slot)&1
				if gz != wz || gdo != wo {
					t.Fatalf("LoadSlot(%d, src %d): flip-flop %d slot %d = (%d,%d), want (%d,%d)",
						tc.dst, tc.src, fi, slot, gz, gdo, wz, wo)
				}
			}
			d := uint64(1) << uint(tc.dst)
			if (m.sz[fi]^before.sz[fi])&d != 0 || (m.so[fi]^before.so[fi])&d != 0 {
				changed = true
			}
		}
		if !changed {
			t.Errorf("LoadSlot(%d, src %d) changed nothing; the fixture states coincide", tc.dst, tc.src)
		}
	}
}

// TestCopySlot moves 64 transition faults, each with its own history,
// from one machine into the reversed slots of another that carries the
// same faults but has seen other vectors: from then on every moved
// fault's state and outputs must follow its original's, step by step.
// A copy of the flip-flop planes alone would restart moved sites with
// the wrong history.
func TestCopySlot(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	rng := logic.NewRandFiller(9)
	vector := func() logic.Vector {
		v := logic.NewVector(c.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		return v
	}
	src, dst := New(c), New(c)
	for k := 0; k < Slots; k++ {
		sig, rise := netlist.SignalID(2*k%len(c.Signals)), k%3 == 0
		if err := src.InjectTransitionFault(sig, rise, 1<<uint(k)); err != nil {
			t.Fatal(err)
		}
		if err := dst.InjectTransitionFault(sig, rise, 1<<uint(Slots-1-k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		src.Step(vector())
		dst.Step(vector())
	}
	for k := 0; k < Slots; k++ {
		dst.CopySlot(Slots-1-k, src, k)
	}
	for step := 0; step < 8; step++ {
		v := vector()
		src.Step(v)
		dst.Step(v)
		for k := 0; k < Slots; k++ {
			want, got := src.StateSlot(k), dst.StateSlot(Slots-1-k)
			for fi := range want {
				if got[fi] != want[fi] {
					t.Fatalf("step %d, fault of slot %d: flip-flop %d = %v, want %v", step, k, fi, got[fi], want[fi])
				}
			}
			for po := range c.Outputs {
				if g, w := dst.OutputSlot(po, Slots-1-k), src.OutputSlot(po, k); g != w {
					t.Fatalf("step %d, fault of slot %d: output %d = %v, want %v", step, k, po, g, w)
				}
			}
		}
	}
}

func TestDetectMask(t *testing.T) {
	g0z, g0o := broadcast(logic.Zero)
	if DetectMask(g0z, g0o, 0, AllSlots) != AllSlots {
		t.Error("good 0 vs faulty 1 not detected")
	}
	// Faulty X must not be a detection.
	if DetectMask(g0z, g0o, AllSlots, AllSlots) != 0 {
		t.Error("good 0 vs faulty X falsely detected")
	}
	g1z, g1o := broadcast(logic.One)
	if DetectMask(g1z, g1o, AllSlots, 0) != AllSlots {
		t.Error("good 1 vs faulty 0 not detected")
	}
	if DetectMask(g1z, g1o, 0, AllSlots) != 0 {
		t.Error("equal values falsely detected")
	}
}

func TestRunDetectsInverterFault(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(y)
y = NOT(a)
`)
	y, _ := c.SignalByName("y")
	faults := []fault.Fault{
		{Site: fault.Site{Signal: y, Gate: -1, Pin: -1, FF: -1}, SA: logic.Zero},
		{Site: fault.Site{Signal: y, Gate: -1, Pin: -1, FF: -1}, SA: logic.One},
	}
	seq := logic.Sequence{{logic.Zero}, {logic.One}}
	res := Run(c, seq, faults, Options{})
	// a=0 -> y=1: SA0 detected at t=0. a=1 -> y=0: SA1 detected at t=1.
	if res.DetectedAt[0] != 0 || res.DetectedAt[1] != 1 {
		t.Fatalf("detections = %v", res.DetectedAt)
	}
	if res.NumDetected() != 2 {
		t.Error("NumDetected wrong")
	}
}

func TestRunSubset(t *testing.T) {
	c, _ := circuits.Load("s27")
	faults := fault.Universe(c, false)
	rng := logic.NewRandFiller(99)
	seq := make(logic.Sequence, 30)
	for i := range seq {
		v := logic.NewVector(c.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}
	full := Run(c, seq, faults, Options{})
	subset := []int{0, 3, 7, len(faults) - 1}
	sub := RunSubset(c, seq, faults, subset, Options{})
	if len(sub.DetectedAt) != len(subset) {
		t.Fatalf("subset result has %d entries, want %d", len(sub.DetectedAt), len(subset))
	}
	for i, fi := range subset {
		if sub.DetectedAt[i] != full.DetectedAt[fi] {
			t.Errorf("fault %d: subset=%d full=%d", fi, sub.DetectedAt[i], full.DetectedAt[fi])
		}
	}
}

// TestFinalState: the fault-free state reached from an initial state,
// including the empty sequence, which keeps the initial state.
func TestFinalState(t *testing.T) {
	c := mustParse(t, `
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(en, q)
`)
	seq := logic.Sequence{{logic.One}, {logic.One}, {logic.Zero}}
	init := []logic.Value{logic.Zero}
	// q toggles on en=1: 0 -> 1 -> 0 -> 0.
	for n, want := range []logic.Value{logic.Zero, logic.One, logic.Zero, logic.Zero} {
		if got := FinalState(c, seq[:n], init); got[0] != want {
			t.Errorf("FinalState after %d vectors = %v, want %v", n, got[0], want)
		}
	}
}

func TestInjectFaultValidation(t *testing.T) {
	c := oneGate(t, netlist.AND)
	m := New(c)
	a, _ := c.SignalByName("a")
	bad := fault.Fault{Site: fault.Site{Signal: a, Gate: 0, Pin: 9, FF: -1}, SA: logic.One}
	if err := m.InjectFault(bad, 1); err == nil {
		t.Error("out-of-range pin accepted")
	}
	badSA := fault.Fault{Site: fault.Site{Signal: a, Gate: -1, Pin: -1, FF: -1}, SA: logic.X}
	if err := m.InjectFault(badSA, 1); err == nil {
		t.Error("stuck-at-X accepted")
	}
	y, _ := c.SignalByName("y")
	badGateSA := fault.Fault{Site: fault.Site{Signal: y, Gate: -1, Pin: -1, FF: -1}, SA: logic.X}
	if err := m.InjectFault(badGateSA, 1); err == nil {
		t.Error("stuck-at-X on a gate output accepted")
	}
	if len(m.marks) != 0 {
		t.Errorf("rejected faults marked gates at order positions %v", m.marks)
	}
}

// TestBroadcastPlanesProperty: encoding/decoding one value through the
// planes is the identity for every slot.
func TestBroadcastPlanesProperty(t *testing.T) {
	f := func(raw uint8, slot uint8) bool {
		v := logic.Value(raw % 3)
		z, o := broadcast(v)
		return planesValue(z, o, uint64(1)<<(slot%64)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResetAllX(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(q)
q = DFF(a)
`)
	m := New(c)
	m.Step(logic.Vector{logic.One})
	m.Reset()
	m.Step(logic.Vector{logic.One})
	if got := m.OutputSlot(0, 0); got != logic.X {
		t.Errorf("after Reset q = %v, want X", got)
	}
}
