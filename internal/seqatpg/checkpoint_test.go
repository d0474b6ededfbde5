package seqatpg

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/runctl"
)

// runToCompletion drives Generate under repeated small attempt budgets,
// resuming from store each time, until the run reports Done. It returns
// the final result and how many interrupted legs it took.
func runToCompletion(t *testing.T, run func(ctl *runctl.Control) Result, store runctl.Store, budgets []int64) (Result, int) {
	t.Helper()
	legs := 0
	for i := 0; ; i++ {
		var b runctl.Budget
		if i < len(budgets) {
			b = runctl.Budget{MaxAttempts: budgets[i]}
		}
		res := run(&runctl.Control{Budget: b, Store: store, Resume: true})
		if res.Err != nil {
			t.Fatalf("leg %d: %v", i, res.Err)
		}
		if res.Status.Done() {
			return res, legs
		}
		if res.Status != runctl.BudgetExhausted {
			t.Fatalf("leg %d: status %v, want budget exhausted", i, res.Status)
		}
		legs++
		if legs > 200 {
			t.Fatal("run never completed")
		}
	}
}

// TestGenerateResumeIdentity is the tentpole invariant for the
// generator: a run interrupted at randomized points and resumed from
// its checkpoint must produce a sequence and coverage bit-identical to
// an uninterrupted run.
func TestGenerateResumeIdentity(t *testing.T) {
	sc := loadScan(t, "s298")
	faults := fault.Universe(sc.Scan, true)
	opts := Options{Seed: 11, Passes: 1}
	ref := Generate(sc, faults, opts)
	if ref.Status != runctl.Complete {
		t.Fatalf("reference status %v", ref.Status)
	}

	// Three interruption schedules with different granularity, the
	// budgets drawn from a seeded RNG so points vary but stay
	// reproducible.
	rng := logic.NewRandFiller(0xC0FFEE)
	for round := 0; round < 3; round++ {
		var budgets []int64
		for i := 0; i < 50; i++ {
			budgets = append(budgets, int64(1+rng.Intn(7)))
		}
		store := runctl.NewMemStore()
		run := func(ctl *runctl.Control) Result {
			o := opts
			o.Control = ctl
			return Generate(sc, faults, o)
		}
		res, legs := runToCompletion(t, run, store, budgets)
		if legs == 0 {
			t.Fatalf("round %d: no interruption happened; budgets too large", round)
		}
		if res.Status != runctl.Resumed {
			t.Fatalf("round %d: final status %v, want resumed", round, res.Status)
		}
		if res.Sequence.String() != ref.Sequence.String() {
			t.Fatalf("round %d: resumed sequence differs from uninterrupted run (%d legs)", round, legs)
		}
		for fi := range faults {
			if res.DetectedAt[fi] != ref.DetectedAt[fi] {
				t.Fatalf("round %d: fault %d detected at %d, reference %d", round, fi, res.DetectedAt[fi], ref.DetectedAt[fi])
			}
			if res.Funct[fi] != ref.Funct[fi] {
				t.Fatalf("round %d: fault %d funct flag diverged", round, fi)
			}
		}
	}
}

// TestGenerateCanceledReturnsPartial checks the cancellation path: a
// pre-canceled context stops the run before any attempt, tagging the
// (empty) result instead of blocking or panicking.
func TestGenerateCanceledReturnsPartial(t *testing.T) {
	sc := loadScan(t, "s27")
	faults := fault.Universe(sc.Scan, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Generate(sc, faults, Options{Seed: 1, Control: &runctl.Control{Budget: runctl.Budget{Ctx: ctx}}})
	if res.Status != runctl.Canceled {
		t.Fatalf("status %v, want canceled", res.Status)
	}
	if len(res.Sequence) != 0 || res.NumDetected() != 0 {
		t.Fatalf("canceled-before-start run produced %d vectors, %d detections", len(res.Sequence), res.NumDetected())
	}
}

// TestGenerateResumeRejectsChangedOptions guards the params fingerprint:
// a checkpoint taken under one seed must not silently continue a run
// with another.
func TestGenerateResumeRejectsChangedOptions(t *testing.T) {
	sc := loadScan(t, "s27")
	faults := fault.Universe(sc.Scan, true)
	store := runctl.NewMemStore()
	res := Generate(sc, faults, Options{Seed: 5, Passes: 1,
		Control: &runctl.Control{Budget: runctl.Budget{MaxAttempts: 2}, Store: store}})
	if res.Status != runctl.BudgetExhausted {
		t.Fatalf("seed leg status %v", res.Status)
	}
	res = Generate(sc, faults, Options{Seed: 6, Passes: 1,
		Control: &runctl.Control{Store: store, Resume: true}})
	if res.Status != runctl.Failed || res.Err == nil {
		t.Fatalf("changed-seed resume accepted: %v %v", res.Status, res.Err)
	}
}

// TestGenerateResumeAfterCompletion: resuming a finished run reloads the
// final checkpoint and returns the full result without regenerating.
func TestGenerateResumeAfterCompletion(t *testing.T) {
	sc := loadScan(t, "s27")
	faults := fault.Universe(sc.Scan, true)
	opts := Options{Seed: 9, Passes: 1}
	ref := Generate(sc, faults, opts)

	store := runctl.NewMemStore()
	o := opts
	o.Control = &runctl.Control{Store: store}
	first := Generate(sc, faults, o)
	if first.Status != runctl.Complete {
		t.Fatalf("first run status %v", first.Status)
	}
	o.Control = &runctl.Control{Store: store, Resume: true}
	again := Generate(sc, faults, o)
	if again.Status != runctl.Resumed {
		t.Fatalf("post-completion resume status %v", again.Status)
	}
	if again.Sequence.String() != ref.Sequence.String() {
		t.Fatal("post-completion resume diverged from reference")
	}
	for fi := range faults {
		if again.DetectedAt[fi] != ref.DetectedAt[fi] {
			t.Fatalf("fault %d: %d vs %d", fi, again.DetectedAt[fi], ref.DetectedAt[fi])
		}
	}
}

// TestGenParamsFingerprint pins the fingerprint a generate checkpoint
// carries, byte for byte, so that checkpoints written by earlier builds
// keep resuming.
func TestGenParamsFingerprint(t *testing.T) {
	sc := loadScan(t, "s298")
	cases := []struct {
		opts   Options
		frames int
		want   string
	}{
		{Options{Seed: 11, Passes: 1}, maxFrames(sc.NumStateVars()),
			"seed=11 passes=1 frames=38 cands=16 podem=30 noscan=false rand=0"},
		{Options{Seed: 1, DisableScanKnowledge: true}, maxFrames(100),
			"seed=1 passes=2 frames=80 cands=16 podem=30 noscan=true rand=0"},
	}
	for _, tc := range cases {
		if got := genParams(tc.opts.withDefaults(), tc.frames); got != tc.want {
			t.Errorf("genParams = %q, want %q", got, tc.want)
		}
	}
}
