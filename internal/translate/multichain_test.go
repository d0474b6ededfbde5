package translate

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/combatpg"
	"repro/internal/fault"
	"repro/internal/scan"
	"repro/internal/sim"
)

// TestTranslateOnMultipleChains: translation works unchanged for
// multi-chain circuits, with scan-in blocks of MaxLen cycles.
func TestTranslateOnMultipleChains(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := scan.InsertChains(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)
	set := combatpg.GenerateTestSet(c, faults, 3)
	tests := FromFrameTests(set.Tests)
	seq, err := Translate(ch, tests, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := Cycles(tests, ch.MaxLen())
	if len(seq) != want {
		t.Fatalf("translated length %d, want %d", len(seq), want)
	}
	// The multi-chain translation must preserve detection of the stem
	// faults the conventional set covers.
	var lifted []fault.Fault
	for fi, f := range faults {
		if set.DetectedBy[fi] < 0 || !f.Site.IsStem() {
			continue
		}
		s, ok := ch.Scan.SignalByName(c.SignalName(f.Site.Signal))
		if !ok {
			t.Fatalf("signal missing in C_scan")
		}
		lifted = append(lifted, fault.Fault{Site: fault.Site{Signal: s, Gate: -1, Pin: -1, FF: -1}, SA: f.SA})
	}
	res := sim.Run(ch.Scan, seq, lifted, sim.Options{})
	for i := range lifted {
		if !res.Detected(i) {
			t.Errorf("fault %s lost in multi-chain translation", lifted[i].Name(ch.Scan))
		}
	}
	// Multi-chain conventional application is cheaper than single
	// chain for the same test count.
	single := Cycles(tests, c.NumFFs())
	if want >= single {
		t.Errorf("multi-chain cycles %d not below single-chain %d", want, single)
	}
}
