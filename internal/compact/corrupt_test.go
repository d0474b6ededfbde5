package compact

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sim"
)

// interruptedRestoreStore runs a budget-limited restoration so a real
// checkpoint lands in the returned store.
func interruptedRestoreStore(t *testing.T, path string) *runctl.FileStore {
	t.Helper()
	sc, faults, seq := fixture(t)
	store := runctl.NewFileStore(path)
	ctl := &runctl.Control{Budget: runctl.Budget{MaxTrials: 2}, Store: store}
	_, st := RestoreOpts(sc.Scan, seq, faults, Options{Control: ctl})
	if st.Status != runctl.BudgetExhausted {
		t.Fatalf("seed run status %v, want budget exhausted", st.Status)
	}
	return store
}

// degradedRestore resumes a restoration against the store and asserts
// the corruption-degradation contract: the run completes (no Failed
// status, no error), the output matches the uninterrupted pass, and
// the degradation is observable (counter + event).
func degradedRestore(t *testing.T, store runctl.Store) {
	t.Helper()
	sc, faults, seq := fixture(t)
	want, wantSt := RestoreOpts(sc.Scan, seq, faults, Options{})
	rec := obs.NewRecorder(nil, obs.RecorderOptions{})
	ctl := &runctl.Control{Store: store, Resume: true}
	out, st := RestoreOpts(sc.Scan, seq, faults, Options{Control: ctl, Obs: rec})
	if st.Status != runctl.Complete || st.Err != nil {
		t.Fatalf("degraded resume: status %v err %v, want complete/nil", st.Status, st.Err)
	}
	if out.String() != want.String() {
		t.Fatalf("degraded output %d vectors differs from uninterrupted %d", len(out), len(want))
	}
	if st.AfterLen != wantSt.AfterLen {
		t.Fatalf("degraded AfterLen %d, want %d", st.AfterLen, wantSt.AfterLen)
	}
	if n := rec.Snapshot().Counters["restore.ckpt_degraded"]; n != 1 {
		t.Fatalf("restore.ckpt_degraded = %d, want 1", n)
	}
}

// TestRestoreCorruptedCheckpointMaskDegrades: a truncated (hand-edited)
// kept mask must not panic inside unpackMask and must not fail the run:
// corruption restarts the pass from nothing on the same engine, with
// output identical to an uninterrupted run.
func TestRestoreCorruptedCheckpointMaskDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	store := interruptedRestoreStore(t, path)

	// Hand-edit the persisted section: truncate the kept mask while
	// leaving the guarding in_len field intact.
	var ck restoreCheckpoint
	if ok, err := store.Load(restoreSection, &ck); err != nil || !ok {
		t.Fatalf("load checkpoint: %v %v", ok, err)
	}
	ck.Kept = ck.Kept[:len(ck.Kept)-1]
	if err := store.Save(restoreSection, ck); err != nil {
		t.Fatal(err)
	}
	degradedRestore(t, runctl.NewFileStore(path))
}

// TestRestoreCorruptedCoveredMaskDegrades: same for the covered mask.
func TestRestoreCorruptedCoveredMaskDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	store := interruptedRestoreStore(t, path)

	var ck restoreCheckpoint
	if ok, err := store.Load(restoreSection, &ck); err != nil || !ok {
		t.Fatalf("load checkpoint: %v %v", ok, err)
	}
	ck.Covered += "0" // extended is as corrupt as truncated
	if err := store.Save(restoreSection, ck); err != nil {
		t.Fatal(err)
	}
	degradedRestore(t, runctl.NewFileStore(path))
}

// TestRestoreWrongRunCheckpointStillFails: a checkpoint from a
// different run (here: a different target order) is NOT corruption and
// must stay a hard failure — degrading would silently compute an
// answer the caller's flags did not ask for.
func TestRestoreWrongRunCheckpointStillFails(t *testing.T) {
	sc, faults, seq := fixture(t)
	path := filepath.Join(t.TempDir(), "ckpt.json")
	interruptedRestoreStore(t, path) // written with OrderDetection

	ctl := &runctl.Control{Store: runctl.NewFileStore(path), Resume: true}
	_, st := RestoreOpts(sc.Scan, seq, faults, Options{Control: ctl, Order: OrderADI})
	if st.Status != runctl.Failed || st.Err == nil {
		t.Fatalf("wrong-order resume: status %v err %v, want failed", st.Status, st.Err)
	}
	if !strings.Contains(st.Err.Error(), "order") {
		t.Fatalf("error %q does not name the order mismatch", st.Err)
	}
}

// TestOmitCorruptedCheckpointMaskDegrades: the omission pass has the
// same degradation obligation for its kept mask and det_at array.
func TestOmitCorruptedCheckpointMaskDegrades(t *testing.T) {
	sc, faults, seq := fixture(t)
	in := padded(sc, seq)
	want, _ := OmitOpts(sc.Scan, in, faults, Options{})
	store := runctl.NewMemStore()
	ctl := &runctl.Control{Budget: runctl.Budget{MaxTrials: 1}, Store: store}
	_, st := OmitOpts(sc.Scan, in, faults, Options{Control: ctl})
	if st.Status != runctl.BudgetExhausted {
		t.Fatalf("seed run status %v, want budget exhausted", st.Status)
	}

	var ck omitCheckpoint
	if ok, err := store.Load(omitSection, &ck); err != nil || !ok {
		t.Fatalf("load checkpoint: %v %v", ok, err)
	}
	keptBackup := ck.Kept
	resumeDegraded := func(label string) {
		t.Helper()
		rec := obs.NewRecorder(nil, obs.RecorderOptions{})
		out, st := OmitOpts(sc.Scan, in, faults, Options{Control: &runctl.Control{Store: store, Resume: true}, Obs: rec})
		if st.Status != runctl.Complete || st.Err != nil {
			t.Fatalf("%s: status %v err %v, want degraded completion", label, st.Status, st.Err)
		}
		if out.String() != want.String() {
			t.Fatalf("%s: degraded output differs from uninterrupted run", label)
		}
		if n := rec.Snapshot().Counters["omit.ckpt_degraded"]; n != 1 {
			t.Fatalf("%s: omit.ckpt_degraded = %d, want 1", label, n)
		}
	}

	ck.Kept = ck.Kept[:len(ck.Kept)-1]
	if err := store.Save(omitSection, ck); err != nil {
		t.Fatal(err)
	}
	resumeDegraded("truncated kept")

	ck.Kept = keptBackup
	ck.DetAt = ck.DetAt[:len(ck.DetAt)-1]
	if err := store.Save(omitSection, ck); err != nil {
		t.Fatal(err)
	}
	resumeDegraded("truncated det_at")
}

// TestOmitWrongRunCheckpointStillFails: vector/fault-count mismatches
// mean the checkpoint belongs to a different run and must stay fatal.
func TestOmitWrongRunCheckpointStillFails(t *testing.T) {
	sc, faults, seq := fixture(t)
	in := padded(sc, seq)
	store := runctl.NewMemStore()
	ctl := &runctl.Control{Budget: runctl.Budget{MaxTrials: 1}, Store: store}
	if _, st := OmitOpts(sc.Scan, in, faults, Options{Control: ctl}); st.Status != runctl.BudgetExhausted {
		t.Fatalf("seed run status %v", st.Status)
	}
	short := in[:len(in)-1]
	_, st := OmitOpts(sc.Scan, short, faults, Options{Control: &runctl.Control{Store: store, Resume: true}})
	if st.Status != runctl.Failed || st.Err == nil {
		t.Fatalf("wrong-length resume: status %v err %v, want failed", st.Status, st.Err)
	}
}

// TestExtraDetectedUsesPrePassSnapshot is the regression test for the
// Omit→countExtra aliasing hazard: the pre-fix code handed countExtra a
// result built from the omitter's live detAt backing array, relying on
// the pass never resetting a detected entry. ExtraDetected must always
// equal an independent recount taken from pristine before/after
// simulations — for both passes, and for a resumed omission whose detAt
// has been round-tripped through a checkpoint.
func TestExtraDetectedUsesPrePassSnapshot(t *testing.T) {
	sc, faults, seq := fixture(t)
	in := padded(sc, seq)
	before := detectedSet(sc, in, faults)

	runs := []struct {
		label string
		run   func() (detAt []int, st Stats)
	}{
		{"restore", func() ([]int, Stats) {
			out, st := Restore(sc.Scan, in, faults)
			return sim.Run(sc.Scan, out, faults, sim.Options{}).DetectedAt, st
		}},
		{"omit", func() ([]int, Stats) {
			out, st := Omit(sc.Scan, in, faults)
			return sim.Run(sc.Scan, out, faults, sim.Options{}).DetectedAt, st
		}},
		{"omit-resumed", func() ([]int, Stats) {
			store := runctl.NewMemStore()
			ctl := &runctl.Control{Budget: runctl.Budget{MaxTrials: 1}, Store: store}
			if _, st := OmitOpts(sc.Scan, in, faults, Options{Control: ctl}); !st.Status.Stopped() {
				t.Fatalf("seed leg finished in one trial (status %v)", st.Status)
			}
			out, st := OmitOpts(sc.Scan, in, faults, Options{Control: &runctl.Control{Store: store, Resume: true}})
			if st.Status != runctl.Resumed {
				t.Fatalf("resume status %v", st.Status)
			}
			return sim.Run(sc.Scan, out, faults, sim.Options{}).DetectedAt, st
		}},
	}
	for _, r := range runs {
		afterDet, st := r.run()
		want := 0
		for fi := range faults {
			if !before[fi] && afterDet[fi] != sim.NotDetected {
				want++
			}
		}
		if st.ExtraDetected != want {
			t.Errorf("%s: ExtraDetected = %d, independent recount = %d", r.label, st.ExtraDetected, want)
		}
	}
}
