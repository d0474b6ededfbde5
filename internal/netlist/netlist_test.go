package netlist

import (
	"strings"
	"testing"
	"testing/quick"
)

func buildToggle(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("toggle")
	b.AddInput("en")
	b.AddGate(XOR, "d", "en", "q")
	b.AddFF("q", "d")
	b.MarkOutput("q")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuilderBasic(t *testing.T) {
	c := buildToggle(t)
	if c.NumInputs() != 1 || c.NumOutputs() != 1 || c.NumFFs() != 1 || c.NumGates() != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
	id, ok := c.SignalByName("d")
	if !ok {
		t.Fatal("signal d missing")
	}
	if c.Signals[id].Kind != KindGate {
		t.Errorf("d kind = %v", c.Signals[id].Kind)
	}
	if q, _ := c.SignalByName("q"); c.FFIndex(q) != 0 {
		t.Error("FFIndex(q) != 0")
	}
}

func TestBuilderUndrivenSignal(t *testing.T) {
	b := NewBuilder("bad")
	b.AddInput("a")
	b.AddGate(AND, "g", "a", "ghost")
	b.MarkOutput("g")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undriven") {
		t.Fatalf("expected undriven error, got %v", err)
	}
}

func TestBuilderDoubleDrive(t *testing.T) {
	b := NewBuilder("bad")
	b.AddInput("a")
	b.AddGate(NOT, "g", "a")
	b.AddGate(NOT, "g", "a")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "driven twice") {
		t.Fatalf("expected double-drive error, got %v", err)
	}
}

func TestBuilderCombinationalCycle(t *testing.T) {
	b := NewBuilder("cyc")
	b.AddInput("a")
	b.AddGate(AND, "x", "a", "y")
	b.AddGate(AND, "y", "a", "x")
	b.MarkOutput("x")
	// x reads y and y reads x, so the loop runs y -> x -> y.
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "combinational cycle: y -> x -> y") {
		t.Fatalf("expected a cycle error naming y -> x -> y, got %v", err)
	}
}

func TestSequentialLoopIsNotACycle(t *testing.T) {
	// Feedback through a flip-flop must be legal.
	if c := buildToggle(t); c == nil {
		t.Fatal("toggle should build")
	}
}

func TestBuilderArityChecks(t *testing.T) {
	b := NewBuilder("bad")
	b.AddInput("a")
	b.AddGate(NOT, "g", "a", "a")
	b.MarkOutput("g")
	if _, err := b.Build(); err == nil {
		t.Error("NOT with 2 inputs accepted")
	}
	b2 := NewBuilder("bad2")
	b2.AddInput("a")
	b2.AddGate(AND, "g", "a")
	b2.MarkOutput("g")
	if _, err := b2.Build(); err == nil {
		t.Error("AND with 1 input accepted")
	}
}

func TestLevelization(t *testing.T) {
	b := NewBuilder("lv")
	b.AddInput("a")
	b.AddInput("b")
	b.AddGate(AND, "g1", "a", "b")
	b.AddGate(NOT, "g2", "g1")
	b.AddGate(OR, "g3", "g2", "a")
	b.MarkOutput("g3")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[SignalID]int)
	for i, gi := range c.Order {
		pos[c.Gates[gi].Out] = i
	}
	for _, gi := range c.Order {
		g := c.Gates[gi]
		for _, in := range g.In {
			if c.Signals[in].Kind == KindGate && pos[in] >= pos[g.Out] {
				t.Fatalf("gate %s evaluated before its input %s", c.SignalName(g.Out), c.SignalName(in))
			}
		}
	}
	g3, _ := c.SignalByName("g3")
	if lvl := c.Level[c.Signals[g3].Driver]; lvl != 3 {
		t.Errorf("level of g3 = %d, want 3", lvl)
	}
}

func TestFanout(t *testing.T) {
	b := NewBuilder("fan")
	b.AddInput("a")
	b.AddGate(NOT, "n", "a")
	b.AddGate(AND, "g", "a", "n")
	b.AddFF("q", "g")
	b.MarkOutput("q")
	b.MarkOutput("n")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.SignalByName("a")
	if got := len(c.Fanout(a)); got != 2 {
		t.Errorf("fanout(a) = %d, want 2 (NOT pin + AND pin)", got)
	}
	n, _ := c.SignalByName("n")
	// n feeds one gate pin and one primary output.
	var gates, pos int
	for _, r := range c.Fanout(n) {
		switch {
		case r.Gate >= 0:
			gates++
		case r.PO >= 0:
			pos++
		}
	}
	if gates != 1 || pos != 1 {
		t.Errorf("fanout(n): gates=%d pos=%d", gates, pos)
	}
	g, _ := c.SignalByName("g")
	refs := c.Fanout(g)
	if len(refs) != 1 || refs[0].FF != 0 {
		t.Errorf("fanout(g) = %+v, want single FF reader", refs)
	}
}

func TestInputOutputIndex(t *testing.T) {
	c := buildToggle(t)
	en, _ := c.SignalByName("en")
	q, _ := c.SignalByName("q")
	if c.InputIndex(en) != 0 || c.InputIndex(q) != -1 {
		t.Error("InputIndex wrong")
	}
	if c.OutputIndex(q) != 0 || c.OutputIndex(en) != -1 {
		t.Error("OutputIndex wrong")
	}
}

func TestParseGateType(t *testing.T) {
	for _, name := range []string{"BUF", "NOT", "AND", "NAND", "OR", "NOR", "XOR", "XNOR"} {
		tt, err := ParseGateType(name)
		if err != nil {
			t.Fatalf("ParseGateType(%s): %v", name, err)
		}
		if tt.String() != name {
			t.Errorf("round trip %s -> %s", name, tt)
		}
	}
	if _, err := ParseGateType("MUX"); err == nil {
		t.Error("unknown gate type accepted")
	}
}

func TestStats(t *testing.T) {
	c := buildToggle(t)
	s := c.Stats()
	if s.Inputs != 1 || s.FFs != 1 || s.Gates != 1 || s.MaxLevel != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestLevelizeOrderProperty checks on random DAG-shaped circuits that
// the evaluation order is topologically consistent.
func TestLevelizeOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := seed
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			v := int(uint64(r) % uint64(n))
			return v
		}
		b := NewBuilder("rand")
		names := []string{"i0", "i1", "i2"}
		for _, n := range names {
			b.AddInput(n)
		}
		for g := 0; g < 20; g++ {
			a := names[next(len(names))]
			bb := names[next(len(names))]
			name := "g" + string(rune('A'+g))
			b.AddGate(NAND, name, a, bb)
			names = append(names, name)
		}
		b.MarkOutput(names[len(names)-1])
		c, err := b.Build()
		if err != nil {
			return false
		}
		pos := make(map[SignalID]int)
		for i, gi := range c.Order {
			pos[c.Gates[gi].Out] = i
		}
		for _, gi := range c.Order {
			g := c.Gates[gi]
			for _, in := range g.In {
				if c.Signals[in].Kind == KindGate && pos[in] >= pos[g.Out] {
					return false
				}
			}
		}
		return len(c.Order) == 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
