package check

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/combatpg"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
	"repro/internal/translate"
)

func fixture(t *testing.T) (*scan.Circuit, []fault.Fault, seqatpg.Result) {
	t.Helper()
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(sc.Scan, true)
	return sc, faults, seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
}

// parseGood builds a small well-formed sequential circuit for the
// netlist-corruption tests.
func parseGood(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(`
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(d)
n1 = AND(a, b)
d = OR(n1, q)
y = NOT(d)
`, "good")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNetlistAcceptsWellFormed(t *testing.T) {
	if err := Netlist(parseGood(t)); err != nil {
		t.Error(err)
	}
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	if err := Netlist(c); err != nil {
		t.Error(err)
	}
}

// TestMalformedNetlistsRejected pins one clear, non-panicking error per
// malformed-netlist class, as produced by the builder before any
// levelized evaluation can hang or panic.
func TestMalformedNetlistsRejected(t *testing.T) {
	cases := []struct {
		name, text, wantSub string
	}{
		{"combinational-loop",
			"INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = OR(a, y)\n",
			"combinational cycle"},
		{"undriven-net",
			"INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n",
			"undriven"},
		{"multiply-driven-net",
			"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(b)\n",
			"already defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := bench.ParseString(tc.text, "bad")
			if err == nil {
				t.Fatalf("accepted %q", tc.text)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestNetlistCatchesCorruption corrupts a built circuit one invariant
// at a time and checks Netlist names the malformed class.
func TestNetlistCatchesCorruption(t *testing.T) {
	t.Run("undriven", func(t *testing.T) {
		c := parseGood(t)
		id, _ := c.SignalByName("n1")
		c.Signals[id].Driver = -1
		if err := Netlist(c); err == nil || !strings.Contains(err.Error(), "undriven") {
			t.Errorf("undriven net not flagged: %v", err)
		}
	})
	t.Run("multiply-driven", func(t *testing.T) {
		c := parseGood(t)
		c.Gates[1].Out = c.Gates[0].Out
		if err := Netlist(c); err == nil || !strings.Contains(err.Error(), "multiply driven") {
			t.Errorf("multiply-driven net not flagged: %v", err)
		}
	})
	t.Run("truncated-order", func(t *testing.T) {
		c := parseGood(t)
		c.Order = c.Order[:len(c.Order)-1]
		if err := Netlist(c); err == nil || !strings.Contains(err.Error(), "combinational loop") {
			t.Errorf("truncated order not flagged: %v", err)
		}
	})
	t.Run("cyclic-order", func(t *testing.T) {
		c := parseGood(t)
		// Reversing the topological order puts at least one gate before
		// a gate that drives it in this circuit (NOT(d) reads OR's out).
		for i, j := 0, len(c.Order)-1; i < j; i, j = i+1, j-1 {
			c.Order[i], c.Order[j] = c.Order[j], c.Order[i]
		}
		if err := Netlist(c); err == nil || !strings.Contains(err.Error(), "combinational loop") {
			t.Errorf("out-of-order evaluation not flagged: %v", err)
		}
	})
}

func TestSequenceValid(t *testing.T) {
	sc, _, res := fixture(t)
	if err := Sequence(sc.Scan, res.Sequence, true); err != nil {
		t.Error(err)
	}
}

func TestSequenceRejectsBadWidth(t *testing.T) {
	sc, _, _ := fixture(t)
	bad := logic.Sequence{logic.NewVector(2)}
	if err := Sequence(sc.Scan, bad, false); err == nil {
		t.Error("narrow vector accepted")
	}
}

func TestSequenceRejectsXWhenFullySpecified(t *testing.T) {
	sc, _, _ := fixture(t)
	seq := logic.Sequence{logic.NewVector(sc.Scan.NumInputs())}
	if err := Sequence(sc.Scan, seq, true); err == nil {
		t.Error("X values accepted as fully specified")
	}
	if err := Sequence(sc.Scan, seq, false); err != nil {
		t.Errorf("X values rejected in relaxed mode: %v", err)
	}
}

func TestGenerateResultValid(t *testing.T) {
	sc, faults, res := fixture(t)
	if err := GenerateResult(sc.Scan, res, faults); err != nil {
		t.Error(err)
	}
}

func TestGenerateResultCatchesFalseClaim(t *testing.T) {
	sc, faults, res := fixture(t)
	// Forge an impossible claim: detection beyond sequence end.
	forged := res
	forged.DetectedAt = append([]int(nil), res.DetectedAt...)
	forged.DetectedAt[0] = len(res.Sequence) + 5
	if err := GenerateResult(sc.Scan, forged, faults); err == nil {
		t.Error("out-of-range detection accepted")
	}
	// Forge a detection on an empty sequence.
	empty := seqatpg.Result{
		Sequence:   nil,
		DetectedAt: make([]int, len(faults)),
		Funct:      make([]bool, len(faults)),
	}
	for i := range empty.DetectedAt {
		empty.DetectedAt[i] = sim.NotDetected
	}
	empty.DetectedAt[3] = 0
	if err := GenerateResult(sc.Scan, empty, faults); err == nil {
		t.Error("claim without sequence accepted")
	}
}

func TestGenerateResultCatchesFunctWithoutDetection(t *testing.T) {
	sc, faults, res := fixture(t)
	forged := res
	forged.DetectedAt = append([]int(nil), res.DetectedAt...)
	forged.Funct = append([]bool(nil), res.Funct...)
	forged.DetectedAt[0] = sim.NotDetected
	forged.Funct[0] = true
	if err := GenerateResult(sc.Scan, forged, faults); err == nil ||
		!strings.Contains(err.Error(), "funct") {
		t.Errorf("funct-without-detection accepted: %v", err)
	}
}

func TestCompactionValid(t *testing.T) {
	sc, faults, res := fixture(t)
	// Dropping the last vector of an ATPG sequence usually loses a
	// detection; Compaction must flag it when it does, and must accept
	// the identity compaction always.
	if err := Compaction(sc.Scan, res.Sequence, res.Sequence, faults); err != nil {
		t.Errorf("identity compaction rejected: %v", err)
	}
	if err := Compaction(sc.Scan, res.Sequence, append(res.Sequence.Clone(), res.Sequence[0]), faults); err == nil {
		t.Error("grown sequence accepted")
	}
}

func TestCompactionCatchesLoss(t *testing.T) {
	sc, faults, res := fixture(t)
	// An empty "compacted" sequence loses everything.
	if err := Compaction(sc.Scan, res.Sequence, nil, faults); err == nil {
		t.Error("lossy compaction accepted")
	}
}

func TestScanStructureSingleAndChains(t *testing.T) {
	c, _ := circuits.Load("s298")
	for _, n := range []int{1, 2, 3, 5, 7} {
		ch, err := scan.InsertChains(c, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := ScanStructure(ch); err != nil {
			t.Errorf("%d chains: %v", n, err)
		}
	}
}

func TestTranslationCycleNeutral(t *testing.T) {
	c, _ := circuits.Load("s27")
	sc, _ := scan.Insert(c)
	faults := fault.Universe(c, true)
	set := combatpg.GenerateTestSet(c, faults, 1)
	tests := translate.FromFrameTests(set.Tests)
	seq, err := translate.Translate(sc, tests, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Translation(sc, tests, seq, sc.MaxLen()); err != nil {
		t.Error(err)
	}
	if err := Translation(sc, tests, seq[:len(seq)-1], sc.MaxLen()); err == nil {
		t.Error("truncated translation accepted")
	}
}
