package sim

import (
	"errors"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/runctl"
)

// An armed error at the worker batch site fails the run cleanly: Failed
// status, the injected error on Result.Err, no panic, workers drained.
func TestInjectedBatchErrorFailsRun(t *testing.T) {
	defer failpoint.Disable()
	s, faults, seq := testCircuitAndSeq(t, "s298", 40)
	if err := failpoint.Enable("sim.worker.batch=error@2"); err != nil {
		t.Fatal(err)
	}
	ctl := &runctl.Control{}
	res := s.Run(seq, faults, Options{Control: ctl})
	if res.Err == nil || !failpoint.IsInjected(res.Err) {
		t.Fatalf("err = %v, want injected failpoint error", res.Err)
	}
	if res.Status != runctl.Failed {
		t.Fatalf("status = %v, want failed", res.Status)
	}
	failpoint.Disable()
	// The simulator stays usable after the injected failure.
	ok := s.Run(seq, faults, Options{})
	if ok.Err != nil || ok.NumDetected() == 0 {
		t.Fatalf("simulator unusable after injected failure: err=%v detected=%d", ok.Err, ok.NumDetected())
	}
}

// An armed panic at the site flows through the existing recover path
// and surfaces as a PanicError naming the batch.
func TestInjectedBatchPanicBecomesPanicError(t *testing.T) {
	defer failpoint.Disable()
	s, faults, seq := testCircuitAndSeq(t, "s298", 40)
	if err := failpoint.Enable("sim.worker.batch=panic@1"); err != nil {
		t.Fatal(err)
	}
	ctl := &runctl.Control{}
	res := s.Run(seq, faults, Options{Control: ctl})
	var pe *PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", res.Err, res.Err)
	}
	if _, ok := pe.Value.(*failpoint.Error); !ok {
		t.Fatalf("panic value = %T, want *failpoint.Error", pe.Value)
	}
	if res.Status != runctl.Failed {
		t.Fatalf("status = %v, want failed", res.Status)
	}
}
