package translate

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/combatpg"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

func s27Scan(t *testing.T) *scan.Circuit {
	t.Helper()
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func mustVec(t *testing.T, s string) logic.Vector {
	t.Helper()
	v, err := logic.ParseVector(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// paperTestSet is the paper's Table 2 test set for s27_scan.
func paperTestSet(t *testing.T) []ScanTest {
	return []ScanTest{
		{SI: mustVec(t, "011"), T: logic.Sequence{mustVec(t, "0000")}},
		{SI: mustVec(t, "011"), T: logic.Sequence{mustVec(t, "1101")}},
		{SI: mustVec(t, "000"), T: logic.Sequence{mustVec(t, "1010")}},
		{SI: mustVec(t, "110"), T: logic.Sequence{mustVec(t, "0100"), mustVec(t, "0111")}},
	}
}

func TestCyclesMatchesPaperExample(t *testing.T) {
	// Four scan-ins of 3 cycles, five functional vectors, and the
	// 3-cycle final scan-out: 12 + 5 + 3 = 20.
	tests := paperTestSet(t)
	want := 4*3 + (1 + 1 + 1 + 2) + 3
	if got := Cycles(tests, 3); got != want {
		t.Errorf("Cycles = %d, want %d", got, want)
	}
}

func TestTranslateStructureMatchesTable3(t *testing.T) {
	sc := s27Scan(t)
	tests := paperTestSet(t)
	seq, err := Translate(sc, tests, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != Cycles(tests, sc.MaxLen()) {
		t.Fatalf("length %d != cycles %d", len(seq), Cycles(tests, sc.MaxLen()))
	}
	// Expected scan_sel pattern per Table 3: 111 0 111 0 111 0 111 00 111.
	sel := make([]byte, len(seq))
	for i, v := range seq {
		if v[sc.SelPI] == logic.One {
			sel[i] = '1'
		} else {
			sel[i] = '0'
		}
	}
	if got, want := string(sel), "111011101110111001"+"11"; got != want {
		t.Errorf("scan_sel pattern = %s, want %s", got, want)
	}
	// Every value must be specified after random fill.
	for _, v := range seq {
		if !v.Specified() {
			t.Fatal("unfilled X in translated sequence")
		}
	}
}

func TestTranslateScanInValuesReachState(t *testing.T) {
	sc := s27Scan(t)
	tests := []ScanTest{{SI: mustVec(t, "011"), T: logic.Sequence{mustVec(t, "0000")}}}
	seq, err := Translate(sc, tests, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(sc.Scan)
	for _, v := range seq[:sc.MaxLen()] {
		m.Step(v)
	}
	st := m.StateSlot(0)
	want := []logic.Value{logic.Zero, logic.One, logic.One}
	for i := range want {
		if st[i] != want[i] {
			t.Errorf("FF %d = %v, want %v", i, st[i], want[i])
		}
	}
}

// TestTranslationGuarantee: the translated sequence detects, on C_scan,
// every original-circuit stem fault the conventional test set detects.
func TestTranslationGuarantee(t *testing.T) {
	sc := s27Scan(t)
	c := sc.Orig
	faults := fault.Universe(c, true)
	set := combatpg.GenerateTestSet(c, faults, 3)
	tests := FromFrameTests(set.Tests)
	seq, err := Translate(sc, tests, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Lift stem faults onto C_scan by name and fault-simulate.
	var lifted []fault.Fault
	var which []int
	for fi, f := range faults {
		if set.DetectedBy[fi] < 0 || !f.Site.IsStem() {
			continue
		}
		s, ok := sc.Scan.SignalByName(c.SignalName(f.Site.Signal))
		if !ok {
			t.Fatalf("signal %s missing in C_scan", c.SignalName(f.Site.Signal))
		}
		lifted = append(lifted, fault.Fault{Site: fault.Site{Signal: s, Gate: -1, Pin: -1, FF: -1}, SA: f.SA})
		which = append(which, fi)
	}
	res := sim.Run(sc.Scan, seq, lifted, sim.Options{})
	for i := range lifted {
		if !res.Detected(i) {
			t.Errorf("fault %s lost in translation", lifted[i].Name(sc.Scan))
		}
	}
	if len(which) == 0 {
		t.Fatal("no faults checked")
	}
}

func TestFromFrameTests(t *testing.T) {
	in := []combatpg.Test{{State: mustVec(t, "01"), Vector: mustVec(t, "10")}}
	out := FromFrameTests(in)
	if len(out) != 1 || out[0].SI.String() != "01" || len(out[0].T) != 1 || out[0].T[0].String() != "10" {
		t.Fatalf("converted = %+v", out)
	}
	// Mutation isolation.
	out[0].SI[0] = logic.One
	if in[0].State[0] != logic.Zero {
		t.Error("FromFrameTests aliases input")
	}
}

func TestTranslateValidation(t *testing.T) {
	sc := s27Scan(t)
	if _, err := Translate(sc, []ScanTest{{SI: mustVec(t, "01"), T: logic.Sequence{mustVec(t, "0000")}}}, 1); err == nil {
		t.Error("short SI accepted")
	}
	if _, err := Translate(sc, []ScanTest{{SI: mustVec(t, "011")}}, 1); err == nil {
		t.Error("empty T accepted")
	}
	if _, err := Translate(sc, []ScanTest{{SI: mustVec(t, "011"), T: logic.Sequence{mustVec(t, "00")}}}, 1); err == nil {
		t.Error("narrow functional vector accepted")
	}
}

func TestTranslateEmptyTestSet(t *testing.T) {
	sc := s27Scan(t)
	seq, err := Translate(sc, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Just the final scan-out block.
	if len(seq) != sc.MaxLen() {
		t.Errorf("empty set translated to %d vectors, want %d", len(seq), sc.MaxLen())
	}
}
