package sim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// wideGate builds an n-input gate of the given type.
func wideGate(t *testing.T, gt netlist.GateType, n int) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("wide")
	in := make([]string, n)
	for i := range in {
		in[i] = string(rune('a' + i))
		b.AddInput(in[i])
	}
	b.AddGate(gt, "y", in...)
	b.MarkOutput("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWideGates(t *testing.T) {
	for _, gt := range []netlist.GateType{netlist.AND, netlist.NAND, netlist.OR, netlist.NOR, netlist.XOR, netlist.XNOR} {
		c := wideGate(t, gt, 7)
		m := New(c)
		// All ones.
		v := make(logic.Vector, 7)
		for i := range v {
			v[i] = logic.One
		}
		m.Step(v)
		got := m.OutputSlot(0, 0)
		var want logic.Value
		switch gt {
		case netlist.AND:
			want = logic.One
		case netlist.NAND:
			want = logic.Zero
		case netlist.OR:
			want = logic.One
		case netlist.NOR:
			want = logic.Zero
		case netlist.XOR: // 7 ones -> odd parity
			want = logic.One
		case netlist.XNOR:
			want = logic.Zero
		}
		if got != want {
			t.Errorf("%v(1×7) = %v, want %v", gt, got, want)
		}
		// One zero among ones.
		v[3] = logic.Zero
		m.Step(v)
		got = m.OutputSlot(0, 0)
		switch gt {
		case netlist.AND:
			want = logic.Zero
		case netlist.NAND:
			want = logic.One
		case netlist.OR:
			want = logic.One
		case netlist.NOR:
			want = logic.Zero
		case netlist.XOR: // 6 ones -> even parity
			want = logic.Zero
		case netlist.XNOR:
			want = logic.One
		}
		if got != want {
			t.Errorf("%v(one zero) = %v, want %v", gt, got, want)
		}
	}
}

func TestXWideGatePessimism(t *testing.T) {
	// AND with one 0 input is 0 even when others are X.
	c := wideGate(t, netlist.AND, 4)
	m := New(c)
	m.Step(logic.Vector{logic.X, logic.Zero, logic.X, logic.X})
	if got := m.OutputSlot(0, 0); got != logic.Zero {
		t.Errorf("AND(x,0,x,x) = %v", got)
	}
	// OR with one 1 is 1 despite X.
	c = wideGate(t, netlist.OR, 4)
	m = New(c)
	m.Step(logic.Vector{logic.X, logic.One, logic.X, logic.X})
	if got := m.OutputSlot(0, 0); got != logic.One {
		t.Errorf("OR(x,1,x,x) = %v", got)
	}
	// XOR with any X is X.
	c = wideGate(t, netlist.XOR, 3)
	m = New(c)
	m.Step(logic.Vector{logic.One, logic.X, logic.Zero})
	if got := m.OutputSlot(0, 0); got != logic.X {
		t.Errorf("XOR(1,x,0) = %v", got)
	}
}

func TestShortInputVectorPadsWithX(t *testing.T) {
	c := wideGate(t, netlist.AND, 3)
	m := New(c)
	// Vector shorter than the input count: missing inputs read X.
	m.Step(logic.Vector{logic.One})
	if got := m.OutputSlot(0, 0); got != logic.X {
		t.Errorf("short vector: AND = %v, want X", got)
	}
}

func TestDuplicateInputSignalOnGate(t *testing.T) {
	// A gate may legally read the same signal twice.
	b := netlist.NewBuilder("dup")
	b.AddInput("a")
	b.AddGate(netlist.XOR, "y", "a", "a")
	b.MarkOutput("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(c)
	m.Step(logic.Vector{logic.One})
	if got := m.OutputSlot(0, 0); got != logic.Zero {
		t.Errorf("XOR(a,a) with a=1 = %v, want 0", got)
	}
	// But a branch fault on one pin breaks the symmetry.
	a, _ := c.SignalByName("a")
	f := fault.Fault{Site: fault.Site{Signal: a, Gate: 0, Pin: 1, FF: -1}, SA: logic.Zero}
	if err := m.InjectFault(f, 1); err != nil {
		t.Fatal(err)
	}
	m.Step(logic.Vector{logic.One})
	if got := m.OutputSlot(0, 0); got != logic.One {
		t.Errorf("XOR(a, a-SA0) with a=1 = %v, want 1", got)
	}
}

func TestManyFaultsSameSite(t *testing.T) {
	// Two different slots may carry opposite faults on the same site.
	c := wideGate(t, netlist.AND, 2)
	m := New(c)
	y, _ := c.SignalByName("y")
	if err := m.InjectFault(fault.Fault{Site: fault.Site{Signal: y, Gate: -1, Pin: -1, FF: -1}, SA: logic.Zero}, 1<<0); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectFault(fault.Fault{Site: fault.Site{Signal: y, Gate: -1, Pin: -1, FF: -1}, SA: logic.One}, 1<<1); err != nil {
		t.Fatal(err)
	}
	m.Step(logic.Vector{logic.One, logic.Zero}) // good y = 0
	if got := m.OutputSlot(0, 0); got != logic.Zero {
		t.Errorf("slot0 (SA0) = %v", got)
	}
	if got := m.OutputSlot(0, 1); got != logic.One {
		t.Errorf("slot1 (SA1) = %v", got)
	}
}

func TestRunEmptyInputs(t *testing.T) {
	c := wideGate(t, netlist.AND, 2)
	if got := Run(c, nil, fault.Universe(c, true), Options{}); got.NumDetected() != 0 {
		t.Error("empty sequence detected faults")
	}
	if got := Run(c, logic.Sequence{{logic.One, logic.One}}, nil, Options{}); len(got.DetectedAt) != 0 {
		t.Error("empty fault list produced results")
	}
}
