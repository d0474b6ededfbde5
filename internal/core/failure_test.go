package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/circuits"
	"repro/internal/compact"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
)

// These tests exercise the failure-survival contract end to end for all
// four checkpoint kinds (generate, sim, restore, omit) against on-disk
// damage: a corrupted primary generation with a healthy previous one
// must roll back and resume bit-identically; both generations damaged
// must surface a typed *runctl.CorruptError (generate, sim) or degrade
// to a from-scratch pass with identical output (restore, omit). No
// corruption class may panic.

// corrupt mutates a checkpoint file in one of three representative ways.
func corruptCkpt(t *testing.T, path, mode string) {
	t.Helper()
	d, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	switch mode {
	case "flip": // single bit flip deep in the payload → checksum mismatch
		d[len(d)-2] ^= 0x01
	case "truncate": // torn write → framing error
		d = d[:len(d)/2]
	case "version": // future/unknown format revision
		d = bytes.Replace(d, []byte("scanatpg-checkpoint/v2"), []byte("scanatpg-checkpoint/v9"), 1)
	default:
		t.Fatalf("unknown corruption mode %q", mode)
	}
	if err := os.WriteFile(path, d, 0o644); err != nil {
		t.Fatal(err)
	}
}

// corruptBothGenerations damages the primary and its previous
// generation so the store cannot roll back.
func corruptBothGenerations(t *testing.T, path, mode string) {
	t.Helper()
	corruptCkpt(t, path, mode)
	if _, err := os.Stat(path + ".1"); err == nil {
		corruptCkpt(t, path+".1", mode)
	}
}

func genFixture(t *testing.T) (*scan.Circuit, []fault.Fault, seqatpg.Options) {
	t.Helper()
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(sc.ScanCircuit(), true)
	return sc, faults, seqatpg.Options{Seed: 11, Passes: 1}
}

// interruptedGenerate runs two budget-limited legs so both checkpoint
// generations (primary and .1) exist on disk.
func interruptedGenerate(t *testing.T, path string) (*scan.Circuit, []fault.Fault, seqatpg.Options) {
	t.Helper()
	sc, faults, opts := genFixture(t)
	for leg := 0; leg < 2; leg++ {
		o := opts
		o.Control = &runctl.Control{
			Budget: runctl.Budget{MaxAttempts: 3},
			Store:  runctl.NewFileStore(path),
			Resume: leg > 0,
		}
		if res := seqatpg.Generate(sc, faults, o); res.Status != runctl.BudgetExhausted {
			t.Fatalf("leg %d status %v, want budget exhausted", leg, res.Status)
		}
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("second generation missing after two legs: %v", err)
	}
	return sc, faults, opts
}

// TestGenerateCheckpointCorruptPrimaryRollsBack: bit-flip the primary
// generation of an interrupted generator checkpoint; the resume must
// fall back to the previous generation and still finish bit-identical
// to an uninterrupted run.
func TestGenerateCheckpointCorruptPrimaryRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.ckpt")
	sc, faults, opts := interruptedGenerate(t, path)
	ref := seqatpg.Generate(sc, faults, opts)
	if ref.Status != runctl.Complete {
		t.Fatalf("reference status %v", ref.Status)
	}

	corruptCkpt(t, path, "flip")
	fs := runctl.NewFileStore(path)
	fs.Logf = t.Logf
	o := opts
	o.Control = &runctl.Control{Store: fs, Resume: true}
	res := seqatpg.Generate(sc, faults, o)
	if res.Status != runctl.Resumed || res.Err != nil {
		t.Fatalf("rollback resume: status %v err %v", res.Status, res.Err)
	}
	if !fs.RolledBack() {
		t.Fatal("store did not report a generation rollback")
	}
	if res.Sequence.String() != ref.Sequence.String() {
		t.Fatal("rollback resume diverged from uninterrupted run")
	}
	for fi := range faults {
		if res.DetectedAt[fi] != ref.DetectedAt[fi] {
			t.Fatalf("fault %d detected at %d, reference %d", fi, res.DetectedAt[fi], ref.DetectedAt[fi])
		}
	}
}

// TestGenerateCheckpointBothGenerationsCorruptFailsTyped: with no
// generation left to roll back to, every corruption class must surface
// as a typed corruption error on a Failed result — never a panic,
// never silent garbage.
func TestGenerateCheckpointBothGenerationsCorruptFailsTyped(t *testing.T) {
	for _, mode := range []string{"flip", "truncate", "version"} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "gen.ckpt")
			sc, faults, opts := interruptedGenerate(t, path)
			corruptBothGenerations(t, path, mode)
			o := opts
			o.Control = &runctl.Control{Store: runctl.NewFileStore(path), Resume: true}
			res := seqatpg.Generate(sc, faults, o)
			if res.Status != runctl.Failed || res.Err == nil {
				t.Fatalf("status %v err %v, want typed failure", res.Status, res.Err)
			}
			if !runctl.IsCorrupt(res.Err) {
				t.Fatalf("error %v is not a runctl.CorruptError", res.Err)
			}
		})
	}
}

func simFixture(t *testing.T) (*sim.Simulator, []fault.Fault, logic.Sequence) {
	t.Helper()
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)
	rng := logic.NewRandFiller(7)
	seq := make(logic.Sequence, 40)
	for i := range seq {
		v := make(logic.Vector, c.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}
	return sim.NewSimulator(c, 2), faults, seq
}

// interruptedSim stops a simulation twice (at increasing poll budgets)
// so two checkpoint generations exist.
func interruptedSim(t *testing.T, s *sim.Simulator, faults []fault.Fault, seq logic.Sequence, path string) {
	t.Helper()
	for leg, polls := range []int64{1, 2} {
		res := s.Run(seq, faults, sim.Options{Control: &runctl.Control{
			Budget: runctl.Budget{StopAfterPolls: polls},
			Store:  runctl.NewFileStore(path),
			Resume: leg > 0,
		}})
		if res.Status != runctl.Canceled {
			t.Fatalf("leg %d status %v, want canceled", leg, res.Status)
		}
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("second generation missing after two legs: %v", err)
	}
}

// TestSimCheckpointCorruptPrimaryRollsBack mirrors the generator test
// for the fault-simulation checkpoint.
func TestSimCheckpointCorruptPrimaryRollsBack(t *testing.T) {
	s, faults, seq := simFixture(t)
	want := s.Run(seq, faults, sim.Options{})
	path := filepath.Join(t.TempDir(), "sim.ckpt")
	interruptedSim(t, s, faults, seq, path)

	corruptCkpt(t, path, "truncate")
	fs := runctl.NewFileStore(path)
	fs.Logf = t.Logf
	res := s.Run(seq, faults, sim.Options{Control: &runctl.Control{Store: fs, Resume: true}})
	if res.Status != runctl.Resumed || res.Err != nil {
		t.Fatalf("rollback resume: status %v err %v", res.Status, res.Err)
	}
	if !fs.RolledBack() {
		t.Fatal("store did not report a generation rollback")
	}
	for fi := range faults {
		if res.DetectedAt[fi] != want.DetectedAt[fi] {
			t.Fatalf("fault %d detected at %d, uninterrupted %d", fi, res.DetectedAt[fi], want.DetectedAt[fi])
		}
	}
}

// TestSimCheckpointBothGenerationsCorruptFailsTyped: the simulator has
// no degradation contract — unreadable state is a typed hard failure.
func TestSimCheckpointBothGenerationsCorruptFailsTyped(t *testing.T) {
	for _, mode := range []string{"flip", "truncate", "version"} {
		t.Run(mode, func(t *testing.T) {
			s, faults, seq := simFixture(t)
			path := filepath.Join(t.TempDir(), "sim.ckpt")
			interruptedSim(t, s, faults, seq, path)
			corruptBothGenerations(t, path, mode)
			res := s.Run(seq, faults, sim.Options{Control: &runctl.Control{Store: runctl.NewFileStore(path), Resume: true}})
			if res.Status != runctl.Failed || res.Err == nil {
				t.Fatalf("status %v err %v, want typed failure", res.Status, res.Err)
			}
			if !runctl.IsCorrupt(res.Err) {
				t.Fatalf("error %v is not a runctl.CorruptError", res.Err)
			}
		})
	}
}

func compactFixture(t *testing.T) (*scan.Circuit, []fault.Fault, logic.Sequence) {
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
	res := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 11})
	if len(res.Sequence) == 0 {
		t.Fatal("empty generated sequence")
	}
	return sc, faults, res.Sequence
}

// TestRestoreCheckpointFileCorruptionDegrades: store-layer corruption
// (as opposed to the section-level damage tested in internal/compact)
// must also take the documented degradation path — the pass restarts
// from nothing on the same engine, completes with output identical to
// an uninterrupted run, and leaves an observable counter.
func TestRestoreCheckpointFileCorruptionDegrades(t *testing.T) {
	for _, mode := range []string{"flip", "truncate", "version"} {
		t.Run(mode, func(t *testing.T) {
			sc, faults, seq := compactFixture(t)
			want, _ := compact.RestoreOpts(sc.Scan, seq, faults, compact.Options{})
			path := filepath.Join(t.TempDir(), "restore.ckpt")
			ctl := &runctl.Control{Budget: runctl.Budget{MaxTrials: 2}, Store: runctl.NewFileStore(path)}
			if _, st := compact.RestoreOpts(sc.Scan, seq, faults, compact.Options{Control: ctl}); st.Status != runctl.BudgetExhausted {
				t.Fatalf("seed run status %v", st.Status)
			}
			corruptBothGenerations(t, path, mode)

			rec := obs.NewRecorder(nil, obs.RecorderOptions{})
			out, st := compact.RestoreOpts(sc.Scan, seq, faults, compact.Options{
				Control: &runctl.Control{Store: runctl.NewFileStore(path), Resume: true},
				Obs:     rec,
			})
			if st.Status != runctl.Complete || st.Err != nil {
				t.Fatalf("degraded resume: status %v err %v", st.Status, st.Err)
			}
			if out.String() != want.String() {
				t.Fatal("degraded restore output differs from uninterrupted run")
			}
			if n := rec.Snapshot().Counters["restore.ckpt_degraded"]; n != 1 {
				t.Fatalf("restore.ckpt_degraded = %d, want 1", n)
			}
		})
	}
}

// TestOmitCheckpointFileCorruptionDegrades: same contract for the
// omission pass.
func TestOmitCheckpointFileCorruptionDegrades(t *testing.T) {
	for _, mode := range []string{"flip", "truncate", "version"} {
		t.Run(mode, func(t *testing.T) {
			sc, faults, seq := compactFixture(t)
			want, _ := compact.OmitOpts(sc.Scan, seq, faults, compact.Options{})
			path := filepath.Join(t.TempDir(), "omit.ckpt")
			ctl := &runctl.Control{Budget: runctl.Budget{MaxTrials: 1}, Store: runctl.NewFileStore(path)}
			if _, st := compact.OmitOpts(sc.Scan, seq, faults, compact.Options{Control: ctl}); st.Status != runctl.BudgetExhausted {
				t.Fatalf("seed run status %v", st.Status)
			}
			corruptBothGenerations(t, path, mode)

			rec := obs.NewRecorder(nil, obs.RecorderOptions{})
			out, st := compact.OmitOpts(sc.Scan, seq, faults, compact.Options{
				Control: &runctl.Control{Store: runctl.NewFileStore(path), Resume: true},
				Obs:     rec,
			})
			if st.Status != runctl.Complete || st.Err != nil {
				t.Fatalf("degraded resume: status %v err %v", st.Status, st.Err)
			}
			if out.String() != want.String() {
				t.Fatal("degraded omit output differs from uninterrupted run")
			}
			if n := rec.Snapshot().Counters["omit.ckpt_degraded"]; n != 1 {
				t.Fatalf("omit.ckpt_degraded = %d, want 1", n)
			}
		})
	}
}

// TestFlowMetaCorruptionFailsTyped: the flow-level "meta" guard section
// shares the same store file; with both generations gone the whole flow
// fails typed at the door instead of resuming against unknown settings.
func TestFlowMetaCorruptionFailsTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flow.ckpt")
	cfg := DefaultConfig()
	cfg.Seq = seqatpg.Options{Passes: 1}
	cfg.SkipBaseline = true
	cfg.Control = &runctl.Control{
		Budget: runctl.Budget{MaxAttempts: 2},
		Store:  runctl.NewFileStore(path),
	}
	row, _, err := RunGenerate("s27", cfg)
	if err != nil || row.Status != runctl.BudgetExhausted {
		t.Fatalf("seed flow: status %v err %v", row.Status, err)
	}
	corruptBothGenerations(t, path, "flip")

	cfg.Control = &runctl.Control{Store: runctl.NewFileStore(path), Resume: true}
	row, _, err = RunGenerate("s27", cfg)
	if err == nil || row.Status != runctl.Failed {
		t.Fatalf("corrupt meta resume: status %v err %v, want typed failure", row.Status, err)
	}
	if !runctl.IsCorrupt(err) {
		t.Fatalf("error %v is not a runctl.CorruptError", err)
	}
}
