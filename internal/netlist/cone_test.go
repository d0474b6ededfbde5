package netlist

import "testing"

// coneCircuit:
//
//	a ──┬─ g1=AND(a,b) ── g3=OR(g1,g2) ── po
//	    └─ g2=NOT(a) ──┘        │
//	b ──┘                       └─ FF(q <- g3), q ── g4=BUF(q) ── po2
func coneCircuit(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("cone")
	b.AddInput("a")
	b.AddInput("b")
	b.AddGate(AND, "g1", "a", "b")
	b.AddGate(NOT, "g2", "a")
	b.AddGate(OR, "g3", "g1", "g2")
	b.AddFF("q", "g3")
	b.AddGate(BUF, "g4", "q")
	b.MarkOutput("g3")
	b.MarkOutput("g4")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sigID(t *testing.T, c *Circuit, name string) SignalID {
	t.Helper()
	s, ok := c.SignalByName(name)
	if !ok {
		t.Fatalf("signal %s missing", name)
	}
	return s
}

func gateOf(t *testing.T, c *Circuit, out string) int32 {
	t.Helper()
	s := sigID(t, c, out)
	if c.Signals[s].Kind != KindGate {
		t.Fatalf("signal %s is not gate-driven", out)
	}
	return c.Signals[s].Driver
}

func coneGates(t *testing.T, c *Circuit, cone []uint64) map[int32]bool {
	t.Helper()
	got := map[int32]bool{}
	for gi := range c.Gates {
		if cone[gi>>6]&(1<<uint(gi&63)) != 0 {
			got[int32(gi)] = true
		}
	}
	return got
}

func TestFanoutGates(t *testing.T) {
	c := coneCircuit(t)
	a := sigID(t, c, "a")
	got := c.FanoutGates(a)
	if len(got) != 2 {
		t.Fatalf("FanoutGates(a) = %v, want 2 gates", got)
	}
	for i := 1; i < len(got); i++ {
		la, lb := c.Level[got[i-1]], c.Level[got[i]]
		if la > lb || (la == lb && got[i-1] >= got[i]) {
			t.Fatalf("FanoutGates(a) not in (level, index) order: %v", got)
		}
	}
	// A gate reading the same signal on several pins appears once.
	b2 := NewBuilder("dup")
	b2.AddInput("x")
	b2.AddGate(AND, "y", "x", "x")
	b2.MarkOutput("y")
	c2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.FanoutGates(sigID(t, c2, "x")); len(got) != 1 {
		t.Fatalf("duplicate-pin fanout not deduplicated: %v", got)
	}
}

func TestSequentialReach(t *testing.T) {
	c := coneCircuit(t)
	var r Reach
	// A fault on a crosses the FF boundary: its state can diverge, so
	// g4 and both POs are reachable.
	c.SequentialReach([]SignalID{sigID(t, c, "a")}, nil, &r)
	gates := coneGates(t, c, r.Gates)
	if len(gates) != 4 {
		t.Fatalf("reach gates = %v, want all 4", gates)
	}
	if len(r.FFs) != 1 || r.FFs[0] != 0 {
		t.Fatalf("reach FFs = %v, want [0]", r.FFs)
	}
	if len(r.POs) != 2 {
		t.Fatalf("reach POs = %v, want both", r.POs)
	}

	// A fault on q stays behind the FF boundary looking forward: only
	// g4 and po2... but g4's output feeds no FF, and q is the FF's own
	// output, which the fault can corrupt, so the FF itself is NOT in
	// the reach (only D-pin faults and cones feeding D are).
	c.SequentialReach([]SignalID{sigID(t, c, "q")}, nil, &r)
	gates = coneGates(t, c, r.Gates)
	g4 := gateOf(t, c, "g4")
	if len(gates) != 1 || !gates[g4] {
		t.Fatalf("reach gates for q = %v, want {%d}", gates, g4)
	}
	if len(r.FFs) != 0 {
		t.Fatalf("reach FFs for q = %v, want none", r.FFs)
	}
	if len(r.POs) != 1 {
		t.Fatalf("reach POs for q = %v, want just po2", r.POs)
	}

	// Reuse of r must fully clear prior state.
	c.SequentialReach([]SignalID{sigID(t, c, "b")}, nil, &r)
	gates = coneGates(t, c, r.Gates)
	if gateOf(t, c, "g2") < int32(len(c.Gates)) && gates[gateOf(t, c, "g2")] {
		t.Fatalf("stale reach state: b does not feed g2 (%v)", gates)
	}

	// Seed FFs alone (D-pin fault) pull in the Q cone.
	c.SequentialReach(nil, []int32{0}, &r)
	gates = coneGates(t, c, r.Gates)
	if len(gates) != 1 || !gates[g4] {
		t.Fatalf("seed-FF reach gates = %v, want {%d}", gates, g4)
	}
	if len(r.FFs) != 1 || r.FFs[0] != 0 {
		t.Fatalf("seed-FF reach FFs = %v, want [0]", r.FFs)
	}
}
