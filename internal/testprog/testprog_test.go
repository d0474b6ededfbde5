package testprog

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/seqatpg"
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

func mixedSeq(sc *scan.Circuit) logic.Sequence {
	f := sc.FunctionalVector(logic.NewVector(4))
	s := sc.ShiftVector(logic.One)
	seq := logic.Sequence{f, s, s, f, f, s, s, s, f}
	seq.FillX(logic.NewRandFiller(1))
	return seq
}

func TestSplitSegments(t *testing.T) {
	sc := s27Scan(t)
	p := Split(sc, mixedSeq(sc))
	kinds := []SegmentKind{Functional, ScanOp, Functional, ScanOp, Functional}
	lens := []int{1, 2, 2, 3, 1}
	if len(p.Segments) != len(kinds) {
		t.Fatalf("segments = %d, want %d", len(p.Segments), len(kinds))
	}
	pos := 0
	for i, seg := range p.Segments {
		if seg.Kind != kinds[i] || seg.Len() != lens[i] {
			t.Errorf("segment %d: %v/%d, want %v/%d", i, seg.Kind, seg.Len(), kinds[i], lens[i])
		}
		if seg.Start != pos {
			t.Errorf("segment %d: start %d, want %d", i, seg.Start, pos)
		}
		pos += seg.Len()
	}
	// Run of 2 is limited (NSV=3); run of 3 is complete.
	if !p.Segments[1].Limited {
		t.Error("2-shift scan op not marked limited")
	}
	if p.Segments[3].Limited {
		t.Error("3-shift scan op marked limited")
	}
}

func TestStats(t *testing.T) {
	sc := s27Scan(t)
	st := Split(sc, mixedSeq(sc)).Stats()
	if st.Cycles != 9 || st.ScanOps != 2 || st.LimitedScanOps != 1 ||
		st.CompleteScanOps != 1 || st.ScanCycles != 5 || st.FuncCycles != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	sc := s27Scan(t)
	seq := mixedSeq(sc)
	flat := Split(sc, seq).Flatten()
	if len(flat) != len(seq) {
		t.Fatal("length changed")
	}
	for i := range seq {
		if flat[i].String() != seq[i].String() {
			t.Fatalf("vector %d changed", i)
		}
	}
}

// TestFormatGolden pins the tester-program text of mixedSeq: the
// header with the chain length, one "scan N limited|complete" or
// "func N" line per segment, then the segment's vectors, scan_sel at
// position 4.
func TestFormatGolden(t *testing.T) {
	sc := s27Scan(t)
	const want = `# tester program, chain length 3
func 1
111101
scan 2 limited
111111
111111
func 2
111101
111101
scan 3 complete
111111
111111
111111
func 1
111101
`
	if got := Split(sc, mixedSeq(sc)).Format(); got != want {
		t.Errorf("Format() =\n%s\nwant\n%s", got, want)
	}
}

func TestEmptySequence(t *testing.T) {
	sc := s27Scan(t)
	p := Split(sc, nil)
	if len(p.Segments) != 0 || p.Stats().Cycles != 0 {
		t.Error("empty sequence produced segments")
	}
}

// TestCompactedSequenceHasLimitedOps ties the package to the paper's
// headline observation: compacted generated sequences contain limited
// scan operations.
func TestCompactedSequenceHasLimitedOps(t *testing.T) {
	sc := s27Scan(t)
	faults := fault.Universe(sc.Scan, true)
	res := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
	st := Split(sc, res.Sequence).Stats()
	if st.LimitedScanOps == 0 {
		t.Error("no limited scan operations in generated sequence")
	}
	if st.Cycles != len(res.Sequence) {
		t.Error("cycle count mismatch")
	}
}

// TestSplitOnMultiChain: on several chains a complete scan operation
// takes the longest chain's length, so a full scan-in splits into one
// complete scan operation and a shorter run is limited.
func TestSplitOnMultiChain(t *testing.T) {
	c, _ := circuits.Load("s298")
	ch, err := scan.InsertChains(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := logic.Sequence{
		ch.ShiftVector(),
		ch.ShiftVector(),
		logic.NewVector(ch.Scan.NumInputs()),
	}
	seq.FillX(logic.NewRandFiller(2))
	// FillX may have made the functional vector's scan_sel 1; force 0.
	seq[2][ch.SelPI] = logic.Zero
	p := Split(ch, seq)
	if len(p.Segments) != 2 || p.Segments[0].Kind != ScanOp || p.Segments[0].Len() != 2 || !p.Segments[0].Limited {
		t.Fatalf("segments = %+v", p.Segments)
	}
	if p.NSV != ch.MaxLen() {
		t.Errorf("NSV = %d, want the longest chain's %d", p.NSV, ch.MaxLen())
	}

	state := make([]logic.Value, ch.NumStateVars())
	for i := range state {
		state[i] = logic.One
	}
	load, err := ch.ScanInSequence(state)
	if err != nil {
		t.Fatal(err)
	}
	if st := Split(ch, load).Stats(); st.CompleteScanOps != 1 || st.LimitedScanOps != 0 {
		t.Errorf("full scan-in: %d complete, %d limited scan operations, want 1 and 0",
			st.CompleteScanOps, st.LimitedScanOps)
	}
}
