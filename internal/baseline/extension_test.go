package baseline

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// TestCyclesAccounting: the reported cycle count must equal the sum of
// complete scan-ins plus functional vectors plus the final scan-out.
func TestCyclesAccounting(t *testing.T) {
	c, _ := circuits.Load("s27")
	faults := fault.Universe(c, true)
	res := Generate(c, faults, Options{Seed: 1})
	want := c.NumFFs()
	for _, test := range res.Tests {
		want += c.NumFFs() + len(test.T)
	}
	if res.Cycles != want {
		t.Errorf("Cycles = %d, want %d", res.Cycles, want)
	}
}

// TestExtensionBounded: no test may exceed the extension limit.
func TestExtensionBounded(t *testing.T) {
	c, _ := circuits.Load("s298")
	faults := fault.Universe(c, true)
	res := Generate(c, faults, Options{Seed: 1, MaxExtension: 3})
	for ti, test := range res.Tests {
		if len(test.T) > 1+3 {
			t.Errorf("test %d has %d functional vectors, limit 4", ti, len(test.T))
		}
	}
}

// TestSimulateTestFinalStateObservation: a fault whose only effect is a
// corrupted final state must be detected (scan-out observability). A
// fault on a flip-flop D pin latches its stuck value, so under a fully
// specified test exactly one of its two polarities differs from the
// fault-free final state.
func TestSimulateTestFinalStateObservation(t *testing.T) {
	c, _ := circuits.Load("s27")
	// Fault on a flip-flop D pin: its effect lives in the next state.
	var f fault.Fault
	found := false
	for _, cand := range fault.Universe(c, false) {
		if cand.Site.FF >= 0 {
			f = cand
			found = true
			break
		}
	}
	if !found {
		t.Skip("no FF D-pin fault in universe")
	}
	si := make(logic.Vector, c.NumFFs())
	for i := range si {
		si[i] = logic.Zero
	}
	vec := make(logic.Vector, c.NumInputs())
	for i := range vec {
		vec[i] = logic.Zero
	}
	f2 := f
	f2.SA = f.SA.Not()
	det := sim.NewSimulator(c, 1).RunScanTest(si, logic.Sequence{vec}, []fault.Fault{f, f2}, nil)
	if len(det) != 1 {
		t.Errorf("D-pin fault polarities detected: %v, want exactly one", det)
	}
}

// TestGenerateEmptyFaultList: no faults, no tests, just the final
// scan-out cycle accounting.
func TestGenerateEmptyFaultList(t *testing.T) {
	c, _ := circuits.Load("s27")
	res := Generate(c, nil, Options{Seed: 1})
	if len(res.Tests) != 0 {
		t.Errorf("tests = %d", len(res.Tests))
	}
	if res.Cycles != c.NumFFs() {
		t.Errorf("cycles = %d, want %d", res.Cycles, c.NumFFs())
	}
}
