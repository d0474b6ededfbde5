package netlist_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/netlist"
)

// checkSweep verifies that c.Sweep is a topological order holding each
// gate exactly once, that Pos inverts it, that the runs partition it
// into stretches of one type and wideness, and that the flat operands
// match the gates.
func checkSweep(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	sw := &c.Sweep
	n := len(c.Gates)
	if len(sw.Gates) != n || len(sw.Pos) != n || len(sw.Ops) != n {
		t.Fatalf("%s: sweep holds %d gates, %d positions, %d operand sets; circuit has %d gates",
			c.Name, len(sw.Gates), len(sw.Pos), len(sw.Ops), n)
	}
	seen := make([]bool, n)
	for p, gi := range sw.Gates {
		if seen[gi] {
			t.Fatalf("%s: gate %d scheduled twice", c.Name, gi)
		}
		seen[gi] = true
		if sw.Pos[gi] != int32(p) {
			t.Fatalf("%s: Pos[%d] = %d, gate sits at %d", c.Name, gi, sw.Pos[gi], p)
		}
	}
	for p, gi := range sw.Gates {
		g := c.Gates[gi]
		for _, in := range g.In {
			if sig := c.Signals[in]; sig.Kind == netlist.KindGate && sw.Pos[sig.Driver] >= int32(p) {
				t.Fatalf("%s: gate %d at %d reads gate %d scheduled at %d", c.Name, gi, p, sig.Driver, sw.Pos[sig.Driver])
			}
		}
		b := g.In[0]
		if len(g.In) > 1 {
			b = g.In[1]
		}
		if op := sw.Ops[p]; op != (netlist.SweepOp{Out: g.Out, A: g.In[0], B: b}) {
			t.Fatalf("%s: operands at %d = %+v for gate %d", c.Name, p, op, gi)
		}
	}
	next := int32(0)
	for i, r := range sw.Runs {
		if r.Lo != next || r.Hi <= r.Lo {
			t.Fatalf("%s: run %d covers [%d,%d), want it to start at %d and be non-empty", c.Name, i, r.Lo, r.Hi, next)
		}
		for _, gi := range sw.Gates[r.Lo:r.Hi] {
			if g := c.Gates[gi]; g.Type != r.Type || (len(g.In) > 2) != r.Wide {
				t.Fatalf("%s: run %d (%v, wide %v) holds %v gate %d with %d inputs", c.Name, i, r.Type, r.Wide, g.Type, gi, len(g.In))
			}
		}
		next = r.Hi
	}
	if next != int32(n) {
		t.Fatalf("%s: runs cover %d of %d positions", c.Name, next, n)
	}
}

func TestSweepCatalog(t *testing.T) {
	for _, name := range circuits.Names() {
		c, err := circuits.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		checkSweep(t, c)
		t.Logf("%s: %d gates in %d runs", name, len(c.Gates), len(c.Sweep.Runs))
	}
}

func TestSweepWideGates(t *testing.T) {
	c, err := bench.ParseString(`
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(z)
OUTPUT(q)
q = DFF(y5)
n1 = NOT(a)
n2 = BUF(q)
w1 = AND(a, b, c)
w2 = NAND(n1, b, c, d)
w3 = OR(w1, n2, e, a, b)
w4 = NOR(w2, w1, c)
w5 = XOR(w3, w4, d, e)
w6 = XNOR(w5, a, b)
y1 = AND(w1, w2)
y2 = NAND(w3, y1)
y3 = OR(y2, w6)
y4 = NOR(y3, n1)
y5 = XOR(y4, w5)
z = XNOR(y5, w6)
`, "wide")
	if err != nil {
		t.Fatal(err)
	}
	checkSweep(t, c)
	wide := 0
	for _, r := range c.Sweep.Runs {
		if r.Wide {
			wide += int(r.Hi - r.Lo)
		}
	}
	if wide != 6 {
		t.Errorf("wide runs hold %d gates, want 6", wide)
	}
}
