package diagnose

import (
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
)

func fixture(t *testing.T) (*scan.Circuit, []fault.Fault, *Dictionary) {
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
	res := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
	return sc, faults, Build(sc.Scan, res.Sequence, faults)
}

func TestDictionaryConsistentWithRun(t *testing.T) {
	sc, faults, d := fixture(t)
	// Rebuild the sequence to cross-check first detections.
	res := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
	check := sim.Run(sc.Scan, res.Sequence, faults, sim.Options{})
	for fi := range faults {
		sig := d.Signatures[fi]
		if check.Detected(fi) != (len(sig) > 0) {
			t.Fatalf("fault %d: dictionary and Run disagree on detection", fi)
		}
		if len(sig) > 0 && sig[0].Time != check.DetectedAt[fi] {
			t.Errorf("fault %d: first failure at %d, Run says %d", fi, sig[0].Time, check.DetectedAt[fi])
		}
	}
}

func TestDiagnoseExactSignature(t *testing.T) {
	sc, faults, d := fixture(t)
	// Pick a fault with a reasonably rich signature and diagnose its
	// own observations: it must rank first (possibly tied with
	// signature-equivalent faults).
	target := -1
	for fi, sig := range d.Signatures {
		if len(sig) >= 3 {
			target = fi
			break
		}
	}
	if target < 0 {
		t.Skip("no rich signature on this seed")
	}
	cands := d.Diagnose(d.Signatures[target])
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	top := cands[0]
	if top.Missed != 0 || top.Extra != 0 {
		t.Errorf("top candidate is not an exact match: %+v", top)
	}
	// The true fault must appear among the exact matches.
	found := false
	for _, c := range cands {
		if c.Extra != 0 || c.Missed != 0 {
			break
		}
		if c.Index == target {
			found = true
		}
	}
	if !found {
		t.Errorf("true fault %s not among exact matches", faults[target].Name(sc.Scan))
	}
}

func TestDiagnoseEmptyObservations(t *testing.T) {
	_, _, d := fixture(t)
	cands := d.Diagnose(nil)
	// With no observations, every candidate has Matched == 0 and is
	// dropped.
	if len(cands) != 0 {
		t.Errorf("expected no candidates, got %d", len(cands))
	}
}

func TestEquivalentGroupsShareSignatures(t *testing.T) {
	_, _, d := fixture(t)
	for _, g := range d.Equivalent() {
		if len(g) < 2 {
			t.Fatal("singleton group")
		}
		first := sigKey(d.Signatures[g[0]])
		for _, fi := range g[1:] {
			if sigKey(d.Signatures[fi]) != first {
				t.Error("group members differ")
			}
		}
	}
}

func TestResolutionBounds(t *testing.T) {
	_, _, d := fixture(t)
	r := d.Resolution()
	if r <= 0 || r > 1 {
		t.Errorf("resolution = %f", r)
	}
}

func TestBuildEmpty(t *testing.T) {
	sc, faults, _ := fixture(t)
	d := Build(sc.Scan, nil, faults)
	for _, sig := range d.Signatures {
		if len(sig) != 0 {
			t.Fatal("empty sequence produced failures")
		}
	}
}

func TestDetectionCountsAndMinDetect(t *testing.T) {
	_, _, d := fixture(t)
	counts := d.DetectionCounts()
	if len(counts) != len(d.Signatures) {
		t.Fatal("counts length mismatch")
	}
	total := 0
	for i, n := range counts {
		if n != len(d.Signatures[i]) {
			t.Fatal("count disagrees with signature length")
		}
		total += n
	}
	if total == 0 {
		t.Fatal("no observations at all")
	}
	min, atMin := d.MinDetect()
	if min <= 0 || atMin <= 0 {
		t.Fatalf("MinDetect = %d, %d", min, atMin)
	}
	for _, n := range counts {
		if n != 0 && n < min {
			t.Fatal("MinDetect not minimal")
		}
	}
}

// TestBuildWorkerDeterminism: the batches fan out over the simulator's
// workers, and the signatures are identical at every worker count.
func TestBuildWorkerDeterminism(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(sc.Scan, true)
	seq := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1}).Sequence
	ref := BuildWith(sim.NewSimulator(sc.Scan, 1), seq, faults)
	for _, w := range []int{2, 4} {
		got := BuildWith(sim.NewSimulator(sc.Scan, w), seq, faults)
		if !reflect.DeepEqual(got.Signatures, ref.Signatures) {
			t.Fatalf("workers=%d: signatures differ from workers=1", w)
		}
	}
}
