package sim

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/runctl"
	"repro/internal/scan"
)

// badFault returns a fault whose injection fails (pin out of range for
// gate 0), which the batch kernels turn into a panic — the deliberate
// worker-failure vector for these tests.
func badFault(c interface{ NumGates() int }) fault.Fault {
	return fault.Fault{
		SA:   logic.Zero,
		Site: fault.Site{Signal: 0, Gate: 0, Pin: 99, FF: -1},
	}
}

func testCircuitAndSeq(t *testing.T, name string, vectors int) (*Simulator, []fault.Fault, logic.Sequence) {
	t.Helper()
	c, err := circuits.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)
	rng := logic.NewRandFiller(7)
	seq := make(logic.Sequence, vectors)
	for i := range seq {
		v := make(logic.Vector, c.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}
	return NewSimulator(c, 4), faults, seq
}

func TestWorkerPanicSurfacesAsError(t *testing.T) {
	s, faults, seq := testCircuitAndSeq(t, "s298", 40)
	// Plant the bad fault in the second batch so the first batch holds
	// only healthy faults.
	if len(faults) <= Slots {
		t.Fatalf("need more than one batch, have %d faults", len(faults))
	}
	bad := badFault(s.Circuit())
	mixed := append(append([]fault.Fault{}, faults[:Slots]...), bad)
	mixed = append(mixed, faults[Slots:2*Slots-1]...)

	before := runtime.NumGoroutine()
	ctl := &runctl.Control{}
	res := s.Run(seq, mixed, Options{Control: ctl})
	if res.Err == nil {
		t.Fatal("worker panic did not surface as an error")
	}
	var pe *PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("error is %T, want *PanicError: %v", res.Err, res.Err)
	}
	if pe.BatchStart != Slots || pe.BatchEnd != len(mixed) {
		t.Errorf("batch range [%d,%d), want [%d,%d)", pe.BatchStart, pe.BatchEnd, Slots, len(mixed))
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "runBatch") {
		t.Errorf("stack missing or unhelpful:\n%s", pe.Stack)
	}
	if res.Status != runctl.Failed {
		t.Errorf("status = %v, want failed", res.Status)
	}
	// Give drained workers a moment to exit, then check for leaks.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}

	// The simulator stays usable after a failed run.
	ok := s.Run(seq, faults, Options{})
	if ok.Err != nil || ok.NumDetected() == 0 {
		t.Fatalf("simulator unusable after failure: err=%v detected=%d", ok.Err, ok.NumDetected())
	}
}

func TestWorkerPanicRepanicsWithoutControl(t *testing.T) {
	s, faults, seq := testCircuitAndSeq(t, "s27", 20)
	mixed := append([]fault.Fault{badFault(s.Circuit())}, faults...)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic propagated to caller")
		}
		if _, ok := r.(*PanicError); !ok {
			t.Fatalf("recovered %T, want *PanicError", r)
		}
	}()
	s.Run(seq, mixed, Options{})
}

func TestRunCancellationReturnsPartial(t *testing.T) {
	s, faults, seq := testCircuitAndSeq(t, "s298", 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctl := &runctl.Control{Budget: runctl.Budget{Ctx: ctx}}
	res := s.Run(seq, faults, Options{Control: ctl})
	if res.Status != runctl.Canceled {
		t.Fatalf("status = %v, want canceled", res.Status)
	}
	if res.Err != nil {
		t.Fatalf("unexpected error: %v", res.Err)
	}
	if res.NumDetected() != 0 {
		// Pre-canceled control: no batch may run.
		t.Fatalf("canceled-before-start run detected %d faults", res.NumDetected())
	}
}

// TestRunStatusIndependentOfWorkers: a run that finishes every batch
// reports Complete at every worker count. s298's C_scan has 7 fault
// batches, so a budget that stops at the 8th poll never stops a batch.
// A two-worker run used to poll once more per worker on its failed
// batch claims and again after its workers drained, and so reported
// Canceled with a complete result.
func TestRunStatusIndependentOfWorkers(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	scd, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(scd.Scan, true)
	if nb := (len(faults) + Slots - 1) / Slots; nb != 7 {
		t.Fatalf("s298 C_scan has %d fault batches, want 7", nb)
	}
	seq := randSeq(64, scd.Scan.NumInputs(), 7)
	want := NewSimulator(scd.Scan, 1).Run(seq, faults, Options{})
	for _, workers := range []int{1, 2} {
		ctl := &runctl.Control{Budget: runctl.Budget{StopAfterPolls: 8}}
		res := NewSimulator(scd.Scan, workers).Run(seq, faults, Options{Control: ctl})
		if res.Status != runctl.Complete {
			t.Errorf("workers=%d: status %v, want complete", workers, res.Status)
		}
		if !slices.Equal(res.DetectedAt, want.DetectedAt) {
			t.Errorf("workers=%d: DetectedAt differs from an unbudgeted run", workers)
		}
	}
}

func TestRunCheckpointResumeIdentity(t *testing.T) {
	s, faults, seq := testCircuitAndSeq(t, "s298", 40)
	ref := s.Run(seq, faults, Options{})

	store := runctl.NewMemStore()
	// Interrupt immediately: context already canceled, nothing runs,
	// but the (empty) checkpoint is written.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := s.Run(seq, faults, Options{Control: &runctl.Control{Budget: runctl.Budget{Ctx: ctx}, Store: store}})
	if res.Status != runctl.Canceled {
		t.Fatalf("status = %v", res.Status)
	}

	// Resume without a budget: must complete and match the reference.
	res = s.Run(seq, faults, Options{Control: &runctl.Control{Store: store, Resume: true}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Status.Done() {
		t.Fatalf("resumed status = %v", res.Status)
	}
	for i := range ref.DetectedAt {
		if res.DetectedAt[i] != ref.DetectedAt[i] {
			t.Fatalf("fault %d: resumed %d, reference %d", i, res.DetectedAt[i], ref.DetectedAt[i])
		}
	}

	// Resume once more: everything checkpointed as complete.
	res = s.Run(seq, faults, Options{Control: &runctl.Control{Store: store, Resume: true}})
	if res.Status != runctl.Resumed {
		t.Fatalf("second resume status = %v", res.Status)
	}
	for i := range ref.DetectedAt {
		if res.DetectedAt[i] != ref.DetectedAt[i] {
			t.Fatalf("fault %d after full resume: %d vs %d", i, res.DetectedAt[i], ref.DetectedAt[i])
		}
	}
}

// TestResumeFromZeroProgressCheckpointReportsResumed is the minimized
// reproduction of an internal/xcheck resume/identical violation
// (circuit s5378_scan, one vector "1110100111111110010000111011111100101",
// one fault "a19 SA0", shrunk by cmd/xcheck): a run interrupted before
// completing any batch writes a checkpoint with no finished batches,
// and the pre-fix resume reported Complete instead of Resumed — unlike
// the compact engines, which report Resumed for the same zero-progress
// checkpoint. The detection results were always identical; only the
// status classification disagreed.
func TestResumeFromZeroProgressCheckpointReportsResumed(t *testing.T) {
	c, err := circuits.Load("s5378")
	if err != nil {
		t.Fatal(err)
	}
	scd, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	v, err := logic.ParseVector("1110100111111110010000111011111100101")
	if err != nil {
		t.Fatal(err)
	}
	seq := logic.Sequence{v}
	sig, ok := scd.Scan.SignalByName("a19")
	if !ok {
		t.Fatal("signal a19 missing from s5378_scan")
	}
	faults := []fault.Fault{{
		Site: fault.Site{Signal: sig, Gate: -1, Pin: -1, FF: -1},
		SA:   logic.Zero,
	}}
	s := NewSimulator(scd.Scan, 1)
	want := s.Run(seq, faults, Options{})

	store := runctl.NewMemStore()
	res := s.Run(seq, faults, Options{Control: &runctl.Control{
		Budget: runctl.Budget{StopAfterPolls: 1}, Store: store,
	}})
	if res.Status != runctl.Canceled {
		t.Fatalf("interrupted leg status = %v, want canceled", res.Status)
	}
	if res.NumDetected() != 0 {
		t.Fatalf("stop at first poll ran %d detections", res.NumDetected())
	}

	res = s.Run(seq, faults, Options{Control: &runctl.Control{Store: store, Resume: true}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Status != runctl.Resumed {
		t.Fatalf("resumed leg status = %v, want resumed", res.Status)
	}
	if res.DetectedAt[0] != want.DetectedAt[0] {
		t.Fatalf("resumed detection %d, uninterrupted %d", res.DetectedAt[0], want.DetectedAt[0])
	}
}

func TestRunCheckpointMismatchFails(t *testing.T) {
	s, faults, seq := testCircuitAndSeq(t, "s27", 10)
	store := runctl.NewMemStore()
	res := s.Run(seq, faults, Options{Control: &runctl.Control{Store: store}})
	if res.Err != nil || !res.Status.Done() {
		t.Fatalf("seed run: %v %v", res.Status, res.Err)
	}
	// Different fault universe: the checkpoint must be rejected.
	res = s.Run(seq, faults[:len(faults)-1], Options{Control: &runctl.Control{Store: store, Resume: true}})
	if res.Err == nil || res.Status != runctl.Failed {
		t.Fatalf("mismatched resume accepted: %v %v", res.Status, res.Err)
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-5, -1, 0} {
		if got := NewSimulator(c, w).Workers(); got != runtime.GOMAXPROCS(0) {
			t.Errorf("NewSimulator(c, %d).Workers() = %d, want GOMAXPROCS %d", w, got, runtime.GOMAXPROCS(0))
		}
	}
	if got := NewSimulator(c, 3).Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("NewSimulator(nil, 1) did not panic")
		}
	}()
	NewSimulator(nil, 1)
}
