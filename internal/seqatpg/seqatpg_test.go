package seqatpg

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/sim"
)

func loadScan(t *testing.T, name string) *scan.Circuit {
	t.Helper()
	c, err := circuits.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestGenerateS27FullCoverage(t *testing.T) {
	sc := loadScan(t, "s27")
	faults := fault.Universe(sc.Scan, true)
	res := Generate(sc, faults, Options{Seed: 1})
	if got := res.NumDetected(); got != len(faults) {
		t.Fatalf("detected %d/%d faults on s27_scan", got, len(faults))
	}
	if len(res.Sequence) == 0 {
		t.Fatal("empty sequence")
	}
	for _, v := range res.Sequence {
		if len(v) != sc.Scan.NumInputs() {
			t.Fatal("vector width mismatch")
		}
		if !v.Specified() {
			t.Fatal("generated sequence contains X values")
		}
	}
}

// TestGenerateDetectionsConfirmedByFaultSim is the key soundness check:
// every detection the generator claims must be reproduced by the
// independent fault simulator on the final sequence.
func TestGenerateDetectionsConfirmedByFaultSim(t *testing.T) {
	sc := loadScan(t, "s27")
	faults := fault.Universe(sc.Scan, true)
	res := Generate(sc, faults, Options{Seed: 7})
	check := sim.Run(sc.Scan, res.Sequence, faults, sim.Options{})
	for fi := range faults {
		claimed := res.DetectedAt[fi] != sim.NotDetected
		actual := check.Detected(fi)
		if claimed && !actual {
			t.Errorf("fault %s claimed detected but fault sim disagrees", faults[fi].Name(sc.Scan))
		}
		// The independent simulation may detect strictly more (other
		// subsequences can catch a fault the generator gave up on),
		// but never less.
	}
}

func TestGenerateDeterministic(t *testing.T) {
	sc := loadScan(t, "s298")
	faults := fault.Universe(sc.Scan, true)
	a := Generate(sc, faults, Options{Seed: 3, Passes: 1})
	b := Generate(sc, faults, Options{Seed: 3, Passes: 1})
	if len(a.Sequence) != len(b.Sequence) {
		t.Fatalf("nondeterministic lengths: %d vs %d", len(a.Sequence), len(b.Sequence))
	}
	for i := range a.Sequence {
		if a.Sequence[i].String() != b.Sequence[i].String() {
			t.Fatalf("sequences diverge at %d", i)
		}
	}
}

func TestGenerateUsesLimitedScan(t *testing.T) {
	sc := loadScan(t, "s298")
	faults := fault.Universe(sc.Scan, true)
	res := Generate(sc, faults, Options{Seed: 1})
	// The sequence must mix functional vectors and scan vectors; a
	// pure complete-scan pattern would make every run of scan_sel = 1
	// a multiple of NSV.
	nScan := sc.CountScanVectors(res.Sequence)
	if nScan == 0 || nScan == len(res.Sequence) {
		t.Fatalf("degenerate scan usage: %d of %d", nScan, len(res.Sequence))
	}
	// Look for at least one limited scan operation: a maximal run of
	// scan_sel = 1 vectors shorter than NSV.
	run, sawLimited := 0, false
	for _, v := range res.Sequence {
		if sc.IsScanSel(v) {
			run++
			continue
		}
		if run > 0 && run < sc.MaxLen() {
			sawLimited = true
		}
		run = 0
	}
	if run > 0 && run < sc.MaxLen() {
		sawLimited = true
	}
	if !sawLimited {
		t.Error("no limited scan operations in the generated sequence")
	}
}

func TestScanKnowledgeAblation(t *testing.T) {
	sc := loadScan(t, "s298")
	faults := fault.Universe(sc.Scan, true)
	with := Generate(sc, faults, Options{Seed: 1, Passes: 1})
	without := Generate(sc, faults, Options{Seed: 1, Passes: 1, DisableScanKnowledge: true})
	if with.NumDetected() < without.NumDetected() {
		t.Errorf("scan knowledge reduced coverage: %d < %d", with.NumDetected(), without.NumDetected())
	}
	if without.NumFunct() != 0 {
		t.Error("ablated run reported funct detections")
	}
}

func TestFunctCountsAreFlushDetections(t *testing.T) {
	sc := loadScan(t, "s298")
	faults := fault.Universe(sc.Scan, true)
	res := Generate(sc, faults, Options{Seed: 1})
	for fi, fl := range res.Funct {
		if fl && res.DetectedAt[fi] == sim.NotDetected {
			t.Errorf("fault %d marked funct but not detected", fi)
		}
	}
	if res.NumFunct() == 0 {
		t.Log("note: no flush detections on this seed (not an error)")
	}
}

func TestManagerIncrementalMatchesBatchRun(t *testing.T) {
	sc := loadScan(t, "s27")
	faults := fault.Universe(sc.Scan, true)
	rng := logic.NewRandFiller(55)
	seq := make(logic.Sequence, 40)
	for i := range seq {
		v := make(logic.Vector, sc.Scan.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}
	mgr := NewManager(sc.Scan, faults)
	mgr.AppendSequence(seq)
	ref := sim.Run(sc.Scan, seq, faults, sim.Options{})
	for fi := range faults {
		if mgr.DetectedAt[fi] != ref.DetectedAt[fi] {
			t.Errorf("fault %d: manager=%d run=%d", fi, mgr.DetectedAt[fi], ref.DetectedAt[fi])
		}
	}
	if mgr.Len() != len(seq) {
		t.Errorf("Len = %d", mgr.Len())
	}
}

func TestManagerGoodStateMatchesFinalState(t *testing.T) {
	sc := loadScan(t, "s27")
	faults := fault.Universe(sc.Scan, true)[:3]
	mgr := NewManager(sc.Scan, faults)
	seq := logic.Sequence{
		sc.ShiftVector(logic.One),
		sc.ShiftVector(logic.Zero),
	}
	for i := range seq {
		seq[i].FillX(logic.NewRandFiller(uint64(i + 1)))
	}
	mgr.AppendSequence(seq)
	want := sim.FinalState(sc.Scan, seq, nil)
	got := mgr.GoodState()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("FF %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestManagerFaultyStateDiverges(t *testing.T) {
	sc := loadScan(t, "s27")
	// A stuck-at-1 on scan_inp makes scanned-in zeros ones.
	inpSig := sc.Scan.Inputs[sc.InpPIs[0]]
	f := fault.Fault{Site: fault.Site{Signal: inpSig, Gate: -1, Pin: -1, FF: -1}, SA: logic.One}
	mgr := NewManager(sc.Scan, []fault.Fault{f})
	// Shift in three zeros.
	for i := 0; i < sc.MaxLen(); i++ {
		v := sc.ShiftVector(logic.Zero)
		v.FillX(logic.NewRandFiller(uint64(i + 9)))
		mgr.Append(v)
	}
	good, bad := mgr.GoodState(), mgr.FaultyState(0)
	same := true
	for i := range good {
		if good[i] != bad[i] {
			same = false
		}
	}
	if same {
		t.Error("faulty state identical to good state despite scan_inp SA1")
	}
}

func TestOptionsDefaults(t *testing.T) {
	if o := (Options{}).withDefaults(); o.Passes != 2 {
		t.Errorf("Passes default = %d, want 2", o.Passes)
	}
	if got := maxFrames(10); got != 30 {
		t.Errorf("maxFrames(10) = %d, want 2*10+10", got)
	}
	if got := maxFrames(100); got != 80 {
		t.Errorf("maxFrames(100) = %d, want the cap 80", got)
	}
	if candidates > sim.Slots {
		t.Errorf("candidates = %d, more than one StepMulti holds", candidates)
	}
}

// attemptLog records the generate/attempt events of a run next to its
// counters.
type attemptLog struct {
	*obs.Registry
	attempts [][]obs.Field
}

func (l *attemptLog) Event(phase, name string, fields ...obs.Field) {
	if phase == "generate" && name == "attempt" {
		l.attempts = append(l.attempts, fields)
	}
}

// TestAttemptEvents pins the per-attempt event docs/ALGORITHMS.md §11
// lists: one generate/attempt event per counted attempt, each carrying
// the same fields in the same order.
func TestAttemptEvents(t *testing.T) {
	sc := loadScan(t, "s298")
	faults := fault.Universe(sc.Scan, true)
	log := &attemptLog{Registry: obs.NewRegistry()}
	Generate(sc, faults, Options{Seed: 1, Obs: log})
	n := log.Snapshot().Counters["generate.attempts"]
	if n == 0 || int64(len(log.attempts)) != n {
		t.Fatalf("%d attempt events, generate.attempts = %d", len(log.attempts), n)
	}
	want := []string{"pass", "fault", "ok", "frames", "flush", "sub_len", "seq_len"}
	for i, fields := range log.attempts {
		if len(fields) != len(want) {
			t.Fatalf("attempt event %d has %d fields, want %v", i, len(fields), want)
		}
		for k, f := range fields {
			if f.Key != want[k] {
				t.Fatalf("attempt event %d field %d is %q, want %q", i, k, f.Key, want[k])
			}
		}
	}
}
