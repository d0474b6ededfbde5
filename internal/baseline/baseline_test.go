package baseline

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/translate"
)

func TestGenerateS27(t *testing.T) {
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)
	res := Generate(c, faults, Options{Seed: 1})
	if res.NumDetected() < len(faults)*95/100 {
		t.Errorf("baseline coverage %d/%d too low", res.NumDetected(), len(faults))
	}
	if len(res.Tests) == 0 {
		t.Fatal("no tests generated")
	}
	if res.Cycles != translate.Cycles(res.Tests, c.NumFFs()) {
		t.Error("cycle count inconsistent with test set")
	}
	for ti, test := range res.Tests {
		if len(test.SI) != c.NumFFs() {
			t.Fatalf("test %d: SI width %d", ti, len(test.SI))
		}
		if len(test.T) == 0 {
			t.Fatalf("test %d: empty T", ti)
		}
		if !test.SI.Specified() {
			t.Fatalf("test %d: SI not fully specified", ti)
		}
		for _, v := range test.T {
			if !v.Specified() || len(v) != c.NumInputs() {
				t.Fatalf("test %d: bad functional vector", ti)
			}
		}
	}
}

// TestDetectedByConsistent re-simulates each test and confirms the
// claimed detections.
func TestDetectedByConsistent(t *testing.T) {
	c, _ := circuits.Load("s27")
	faults := fault.Universe(c, true)
	res := Generate(c, faults, Options{Seed: 2})
	for fi, ti := range res.DetectedBy {
		if ti < 0 {
			continue
		}
		if ti >= len(res.Tests) {
			t.Fatalf("fault %d detected by out-of-range test %d", fi, ti)
		}
		test := res.Tests[ti]
		det := sim.NewSimulator(c, 1).RunScanTest(test.SI, test.T, faults[fi:fi+1], nil)
		if len(det) != 1 || det[0] != 0 {
			t.Errorf("fault %s not actually detected by test %d", faults[fi].Name(c), ti)
		}
	}
}

func TestCompactionDropsRedundantTests(t *testing.T) {
	c, _ := circuits.Load("s298")
	faults := fault.Universe(c, true)
	res := Generate(c, faults, Options{Seed: 1})
	// Every kept test must be load-bearing: detect at least one fault
	// assigned to it.
	used := make(map[int]bool)
	for _, ti := range res.DetectedBy {
		if ti >= 0 {
			used[ti] = true
		}
	}
	for ti := range res.Tests {
		if !used[ti] {
			t.Errorf("test %d detects nothing after compaction", ti)
		}
	}
}

func TestSecondApproachUsesMultiVectorTests(t *testing.T) {
	c, _ := circuits.Load("s298")
	faults := fault.Universe(c, true)
	res := Generate(c, faults, Options{Seed: 1})
	multi := 0
	for _, test := range res.Tests {
		if len(test.T) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no test used more than one functional vector; extension is dead")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c, _ := circuits.Load("s27")
	faults := fault.Universe(c, true)
	a := Generate(c, faults, Options{Seed: 4})
	b := Generate(c, faults, Options{Seed: 4})
	if len(a.Tests) != len(b.Tests) || a.Cycles != b.Cycles {
		t.Error("same seed produced different test sets")
	}
}

func TestSimulateTestSkip(t *testing.T) {
	c, _ := circuits.Load("s27")
	faults := fault.Universe(c, true)
	res := Generate(c, faults, Options{Seed: 1})
	skip := make([]int, len(faults))
	for i := range skip {
		skip[i] = 0 // skip everything
	}
	test := res.Tests[0]
	if det := sim.NewSimulator(c, 1).RunScanTest(test.SI, test.T, faults, skip); len(det) != 0 {
		t.Error("skip list ignored")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(2)
	if o.MaxExtension != 4 || o.PodemBacktracks != 100 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{}.withDefaults(30)
	if o.MaxExtension != 30 {
		t.Errorf("MaxExtension = %d", o.MaxExtension)
	}
}
