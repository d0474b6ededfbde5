package xcheck

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/compact"
	"repro/internal/failpoint"
	"repro/internal/logic"
	"repro/internal/runctl"
)

// checkStoreSurvival: the failure-survival contract of the checkpoint
// store, cross-checked on real workloads. Three legs:
//
//  1. rollback — a run interrupted twice leaves two on-disk generations;
//     flipping a bit in the primary must roll the resume back to the
//     previous generation and still finish bit-identical to an
//     uninterrupted run;
//  2. degradation — with both generations damaged, the restoration pass
//     must complete from scratch with identical output instead of
//     failing or panicking;
//  3. transient faults — a run whose store injects one transient sync
//     error (via the failpoint registry) must absorb it in the retry
//     layer and stay bit-identical.
func checkStoreSurvival(w *Workload) string {
	dir, err := os.MkdirTemp("", "xcheck-store-")
	if err != nil {
		return fmt.Sprintf("store: temp dir: %v", err)
	}
	defer os.RemoveAll(dir)

	restore := func(ctl *runctl.Control) (logic.Sequence, compact.Stats) {
		return compact.RestoreOpts(w.Design.Scan, w.Seq, w.Faults,
			compact.Options{Workers: 1, Control: ctl})
	}
	want, st := restore(nil)
	if st.Status != runctl.Complete {
		return fmt.Sprintf("store: uninterrupted run status %v", st.Status)
	}

	// Interrupt twice at workload-derived poll counts so the store holds
	// a primary and a previous generation. A workload small enough to
	// finish inside the first budget has nothing to check.
	rng := w.rng(10)
	path := filepath.Join(dir, "ckpt")
	for leg := 0; leg < 2; leg++ {
		ctl := &runctl.Control{
			Budget: runctl.Budget{StopAfterPolls: int64(1 + rng.Intn(20))},
			Store:  runctl.NewFileStore(path),
			Resume: leg > 0,
		}
		if _, st := restore(ctl); st.Status.Done() {
			return ""
		}
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		return fmt.Sprintf("store: no previous generation after two interrupted legs: %v", err)
	}

	// Leg 1: corrupt the primary, expect rollback and bit-identity.
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Sprintf("store: read primary: %v", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-2] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		return fmt.Sprintf("store: corrupt primary: %v", err)
	}
	fs := runctl.NewFileStore(path)
	got, st := restore(&runctl.Control{Store: fs, Resume: true})
	if st.Status != runctl.Resumed && st.Status != runctl.Complete {
		return fmt.Sprintf("store/rollback: resume status %v (err %v)", st.Status, st.Err)
	}
	if !fs.RolledBack() {
		return "store/rollback: corrupt primary did not roll back to the previous generation"
	}
	if !seqEqual(want, got) {
		return fmt.Sprintf("store/rollback: resumed output (%d vectors) differs from uninterrupted (%d vectors)",
			len(got), len(want))
	}

	// Leg 2: corrupt what is left (the rollback promoted the backup, so
	// damage every remaining generation), expect degraded completion.
	for _, p := range []string{path, path + ".1"} {
		d, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if err := os.WriteFile(p, d[:len(d)/2], 0o644); err != nil {
			return fmt.Sprintf("store: corrupt %s: %v", p, err)
		}
	}
	got, st = restore(&runctl.Control{Store: runctl.NewFileStore(path), Resume: true})
	if st.Status != runctl.Complete || st.Err != nil {
		return fmt.Sprintf("store/degrade: status %v err %v, want degraded completion", st.Status, st.Err)
	}
	if !seqEqual(want, got) {
		return fmt.Sprintf("store/degrade: degraded output (%d vectors) differs from uninterrupted (%d vectors)",
			len(got), len(want))
	}

	// Leg 3: one transient injected sync failure must be retried away.
	defer failpoint.Disable()
	if err := failpoint.Enable("runctl.store.sync=error@1"); err != nil {
		return fmt.Sprintf("store/transient: arm failpoint: %v", err)
	}
	tpath := filepath.Join(dir, "transient.ckpt")
	got, st = restore(&runctl.Control{Store: runctl.NewFileStore(tpath)})
	fired := failpoint.Fired("runctl.store.sync")
	failpoint.Disable()
	if st.Status != runctl.Complete || st.Err != nil {
		return fmt.Sprintf("store/transient: status %v err %v, want complete despite one injected sync error", st.Status, st.Err)
	}
	if !seqEqual(want, got) {
		return "store/transient: output differs after a retried store fault"
	}
	if fired == 0 {
		return "store/transient: injected sync fault never fired (site renamed?)"
	}
	return ""
}
