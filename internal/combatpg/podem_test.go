package combatpg

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func mustParse(t *testing.T, text string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(text, "t")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func stemFault(t *testing.T, c *netlist.Circuit, name string, sa logic.Value) fault.Fault {
	t.Helper()
	s, ok := c.SignalByName(name)
	if !ok {
		t.Fatalf("signal %s missing", name)
	}
	return fault.Fault{Site: fault.Site{Signal: s, Gate: -1, Pin: -1, FF: -1}, SA: sa}
}

func TestPodemAndGate(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
`)
	gen := NewGenerator(c, Options{})
	// y SA0 requires a=b=1.
	r := gen.Generate(stemFault(t, c, "y", logic.Zero))
	if r.Status != Success {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Vector[0] != logic.One || r.Vector[1] != logic.One {
		t.Errorf("vector = %v", r.Vector)
	}
	// a SA1 requires a=0, b=1.
	r = gen.Generate(stemFault(t, c, "a", logic.One))
	if r.Status != Success {
		t.Fatalf("a SA1: %v", r.Status)
	}
	if r.Vector[0] != logic.Zero || r.Vector[1] != logic.One {
		t.Errorf("a SA1 vector = %v", r.Vector)
	}
}

func TestPodemPropagationChain(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
INPUT(cc)
OUTPUT(y)
n1 = AND(a, b)
n2 = OR(n1, cc)
y = NOT(n2)
`)
	gen := NewGenerator(c, Options{})
	// n1 SA1: need a=0 or b=0 to excite, cc=0 to propagate through OR.
	r := gen.Generate(stemFault(t, c, "n1", logic.One))
	if r.Status != Success {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Vector[2] != logic.Zero {
		t.Errorf("cc = %v, want 0 for propagation", r.Vector[2])
	}
	if r.Vector[0] == logic.One && r.Vector[1] == logic.One {
		t.Error("fault not excited: a=b=1 makes n1=1")
	}
}

func TestPodemUntestableRedundantFault(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1: y SA1 is undetectable.
	c := mustParse(t, `
INPUT(a)
OUTPUT(y)
n = NOT(a)
y = OR(a, n)
`)
	gen := NewGenerator(c, Options{})
	r := gen.Generate(stemFault(t, c, "y", logic.One))
	if r.Status != Untestable {
		t.Fatalf("constant-1 line SA1 reported %v, want untestable", r.Status)
	}
	// y SA0 is trivially detectable.
	r = gen.Generate(stemFault(t, c, "y", logic.Zero))
	if r.Status != Success {
		t.Fatalf("y SA0 reported %v", r.Status)
	}
}

func TestPodemXorBacktrace(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(a, b)
`)
	gen := NewGenerator(c, Options{})
	for _, sa := range []logic.Value{logic.Zero, logic.One} {
		r := gen.Generate(stemFault(t, c, "a", sa))
		if r.Status != Success {
			t.Fatalf("a SA%d: %v", sa, r.Status)
		}
		if r.Vector[0] != sa.Not() {
			t.Errorf("a SA%d: a = %v", sa, r.Vector[0])
		}
		if !r.Vector[1].IsBinary() {
			t.Errorf("a SA%d: b unassigned, cannot propagate through XOR", sa)
		}
	}
}

func TestPodemFixedStateRestriction(t *testing.T) {
	// Fault observable only by setting the flip-flop value; with a
	// fixed all-X state PODEM must not claim success.
	c := mustParse(t, `
INPUT(a)
OUTPUT(y)
q = DFF(a)
y = AND(a, q)
`)
	gen := NewGenerator(c, Options{ObservePPO: false})
	r := gen.Generate(stemFault(t, c, "y", logic.Zero))
	if r.Status == Success {
		t.Fatal("claimed success with unknown state")
	}
	// With the state fixed to 1 it becomes testable.
	gen = NewGenerator(c, Options{FixedState: []logic.Value{logic.One}})
	r = gen.Generate(stemFault(t, c, "y", logic.Zero))
	if r.Status != Success {
		t.Fatalf("fixed state: %v", r.Status)
	}
	if r.Vector[0] != logic.One {
		t.Errorf("a = %v, want 1", r.Vector[0])
	}
}

func TestPodemAssignStateTreatsFFsAsInputs(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(y)
q = DFF(a)
y = AND(a, q)
`)
	gen := NewGenerator(c, Options{AssignState: true, ObservePPO: true})
	r := gen.Generate(stemFault(t, c, "y", logic.Zero))
	if r.Status != Success {
		t.Fatalf("status = %v", r.Status)
	}
	if r.State[0] != logic.One || r.Vector[0] != logic.One {
		t.Errorf("state=%v vector=%v, want both 1", r.State, r.Vector)
	}
}

func TestPodemObservePPO(t *testing.T) {
	// Fault effect reaches only the flip-flop data input.
	c := mustParse(t, `
INPUT(a)
INPUT(b)
OUTPUT(z)
q = DFF(d)
d = AND(a, b)
z = BUF(b)
`)
	f := stemFault(t, c, "d", logic.Zero)
	genNo := NewGenerator(c, Options{ObservePPO: false, AssignState: true})
	if r := genNo.Generate(f); r.Status == Success {
		t.Fatal("detected with PPOs unobservable")
	}
	genYes := NewGenerator(c, Options{ObservePPO: true, AssignState: true})
	r := genYes.Generate(f)
	if r.Status != Success {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Vector[0] != logic.One || r.Vector[1] != logic.One {
		t.Errorf("vector = %v", r.Vector)
	}
}

// TestPodemResultsVerifiedBySimulation: every Success on the s27 fault
// universe must be confirmed by independent fault simulation of the
// returned frame.
func TestPodemResultsVerifiedBySimulation(t *testing.T) {
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, false)
	gen := NewGenerator(c, Options{AssignState: true, ObservePPO: true})
	successes := 0
	for fi, f := range faults {
		r := gen.Generate(f)
		if r.Status != Success {
			continue
		}
		successes++
		rng := logic.NewRandFiller(uint64(fi + 1))
		r.State.FillX(rng)
		r.Vector.FillX(rng)
		det := sim.NewSimulator(c, 1).RunScanTest(r.State, logic.Sequence{r.Vector}, faults, nil)
		found := false
		for _, di := range det {
			if di == fi {
				found = true
			}
		}
		if !found {
			t.Errorf("fault %s: PODEM success not confirmed by simulation", f.Name(c))
		}
	}
	if successes < len(faults)*9/10 {
		t.Errorf("only %d/%d faults testable on s27; expected nearly all", successes, len(faults))
	}
}

func TestGenerateTestSetS27(t *testing.T) {
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)
	res := GenerateTestSet(c, faults, 1)
	cov := fault.Coverage(res.NumDetected(), len(faults))
	if cov < 95 {
		t.Errorf("first-approach coverage on s27 = %.2f%%, want >= 95%%", cov)
	}
	if len(res.Tests) == 0 || len(res.Tests) > len(faults) {
		t.Errorf("test count = %d", len(res.Tests))
	}
	// Every test must be fully specified after random fill.
	for i, tst := range res.Tests {
		if !tst.State.Specified() || !tst.Vector.Specified() {
			t.Errorf("test %d not fully specified", i)
		}
	}
	// DetectedBy indices must point at valid tests.
	for fi, ti := range res.DetectedBy {
		if ti >= len(res.Tests) {
			t.Errorf("fault %d detected by nonexistent test %d", fi, ti)
		}
	}
}

func TestTestSetUntested(t *testing.T) {
	c, _ := circuits.Load("s27")
	faults := fault.Universe(c, true)
	res := GenerateTestSet(c, faults, 1)
	un := res.Untested(faults)
	if len(un)+res.NumDetected() != len(faults) {
		t.Error("Untested + detected != total")
	}
}
