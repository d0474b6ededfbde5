package runctl

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNilControlIsInert(t *testing.T) {
	var c *Control
	if st, stop := c.ShouldStop(); stop || st != Complete {
		t.Fatalf("nil ShouldStop = %v, %v", st, stop)
	}
	if st, stop := c.Attempt(); stop || st != Complete {
		t.Fatalf("nil Attempt = %v, %v", st, stop)
	}
	if st, stop := c.Trial(); stop || st != Complete {
		t.Fatalf("nil Trial = %v, %v", st, stop)
	}
	if c.Resuming() {
		t.Fatal("nil Resuming = true")
	}
	if err := c.Save("x", 1); err != nil {
		t.Fatalf("nil Save: %v", err)
	}
	if ok, err := c.Load("x", new(int)); ok || err != nil {
		t.Fatalf("nil Load = %v, %v", ok, err)
	}
}

func TestStatusClassification(t *testing.T) {
	for _, st := range []Status{Canceled, DeadlineExceeded, BudgetExhausted, Failed} {
		if !st.Stopped() || st.Done() {
			t.Errorf("%v: Stopped=%v Done=%v", st, st.Stopped(), st.Done())
		}
	}
	for _, st := range []Status{Complete, Resumed} {
		if st.Stopped() || !st.Done() {
			t.Errorf("%v: Stopped=%v Done=%v", st, st.Stopped(), st.Done())
		}
	}
	if Complete.String() != "complete" || DeadlineExceeded.String() != "deadline exceeded" {
		t.Errorf("unexpected status names %q, %q", Complete, DeadlineExceeded)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Control{Budget: Budget{Ctx: ctx}}
	if _, stop := c.ShouldStop(); stop {
		t.Fatal("stopped before cancel")
	}
	cancel()
	st, stop := c.ShouldStop()
	if !stop || st != Canceled {
		t.Fatalf("after cancel: %v, %v", st, stop)
	}
	// Sticky: later polls report the same status.
	if st, _ := c.Attempt(); st != Canceled {
		t.Fatalf("sticky status = %v", st)
	}
}

func TestStopAfterPolls(t *testing.T) {
	c := &Control{Budget: Budget{StopAfterPolls: 3}}
	for i := 0; i < 2; i++ {
		if st, stop := c.ShouldStop(); stop {
			t.Fatalf("poll %d: stopped early (%v)", i+1, st)
		}
	}
	st, stop := c.ShouldStop()
	if !stop || st != Canceled {
		t.Fatalf("3rd poll = %v, %v; want canceled stop", st, stop)
	}
	// Sticky: later polls report the same status.
	if st, stop := c.Trial(); !stop || st != Canceled {
		t.Fatalf("sticky status = %v, %v", st, stop)
	}
}

// TestStopAfterPollsCountsAttemptsAndTrials: Attempt and Trial poll
// through ShouldStop, so they advance the injection counter too.
func TestStopAfterPollsCountsAttemptsAndTrials(t *testing.T) {
	c := &Control{Budget: Budget{StopAfterPolls: 2}}
	if st, stop := c.Attempt(); stop {
		t.Fatalf("1st attempt stopped early (%v)", st)
	}
	if st, stop := c.Trial(); !stop || st != Canceled {
		t.Fatalf("2nd poll (trial) = %v, %v; want canceled stop", st, stop)
	}
}

func TestDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	c := &Control{Budget: Budget{Ctx: ctx}}
	<-ctx.Done()
	if st, stop := c.ShouldStop(); !stop || st != DeadlineExceeded {
		t.Fatalf("ShouldStop after the deadline = %v, %v; want a deadline exceeded stop", st, stop)
	}
}

func TestAttemptAndTrialBudgets(t *testing.T) {
	c := &Control{Budget: Budget{MaxAttempts: 3, MaxTrials: 2}}
	for i := 0; i < 3; i++ {
		if st, stop := c.Attempt(); stop {
			t.Fatalf("attempt %d stopped early: %v", i, st)
		}
	}
	if st, stop := c.Attempt(); !stop || st != BudgetExhausted {
		t.Fatalf("4th attempt = %v, %v", st, stop)
	}
	// Attempts exhausting the budget also stops trials (sticky).
	if st, stop := c.Trial(); !stop || st != BudgetExhausted {
		t.Fatalf("trial after exhaustion = %v, %v", st, stop)
	}
}

func TestTrialBudgetIndependent(t *testing.T) {
	c := &Control{Budget: Budget{MaxTrials: 2}}
	for i := 0; i < 2; i++ {
		if _, stop := c.Trial(); stop {
			t.Fatalf("trial %d stopped early", i)
		}
	}
	if st, stop := c.Trial(); !stop || st != BudgetExhausted {
		t.Fatalf("3rd trial = %v, %v", st, stop)
	}
	// No attempt cap: attempts keep going but see the sticky stop.
	if st, stop := c.Attempt(); !stop || st != BudgetExhausted {
		t.Fatalf("attempt = %v, %v", st, stop)
	}
}

type payload struct {
	N   int      `json:"n"`
	Seq []string `json:"seq"`
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	fs := NewFileStore(path)
	if ok, err := fs.Load("gen", new(payload)); ok || err != nil {
		t.Fatalf("load before save = %v, %v", ok, err)
	}
	want := payload{N: 7, Seq: []string{"01x", "110"}}
	if err := fs.Save("gen", want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("sim", payload{N: 1}); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same file sees both sections.
	fresh := NewFileStore(path)
	var got payload
	ok, err := fresh.Load("gen", &got)
	if err != nil || !ok {
		t.Fatalf("reload = %v, %v", ok, err)
	}
	if got.N != want.N || len(got.Seq) != 2 || got.Seq[0] != "01x" {
		t.Fatalf("round trip: got %+v", got)
	}
	var other payload
	if ok, _ := fresh.Load("sim", &other); !ok || other.N != 1 {
		t.Fatalf("second section lost: %+v ok=%v", other, ok)
	}

	// No stray temp files remain next to the checkpoint.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}

	if err := fresh.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("file survives Clear: %v", err)
	}
}

func TestFileStoreRejectsCorruptAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(corrupt).Load("x", new(int)); err == nil {
		t.Fatal("corrupt file accepted")
	}
	foreign := filepath.Join(dir, "foreign.json")
	if err := os.WriteFile(foreign, []byte(`{"format":"other/v9","sections":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(foreign).Load("x", new(int)); err == nil {
		t.Fatal("foreign format accepted")
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMemStore()
	if err := m.Save("s", payload{N: 3}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, err := m.Load("s", &got); !ok || err != nil || got.N != 3 {
		t.Fatalf("load = %+v, %v, %v", got, ok, err)
	}
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := m.Load("s", &got); ok {
		t.Fatal("section survives Clear")
	}
}

func TestCheckpointThrottle(t *testing.T) {
	m := NewMemStore()
	c := &Control{Store: m, SaveEvery: 4}
	for i := 0; i < 7; i++ {
		if err := c.Checkpoint("s", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	var got payload
	ok, _ := m.Load("s", &got)
	if !ok || got.N != 3 {
		// Ticks 1..7, only the 4th saves (N=3); 8th has not happened.
		t.Fatalf("throttled state = %+v ok=%v", got, ok)
	}
	// Save is never throttled.
	if err := c.Save("s", payload{N: 99}); err != nil {
		t.Fatal(err)
	}
	m.Load("s", &got)
	if got.N != 99 {
		t.Fatalf("unthrottled save lost: %+v", got)
	}
}

func TestResumeRequiresStoreAndFlag(t *testing.T) {
	m := NewMemStore()
	m.Save("s", payload{N: 5})
	noResume := &Control{Store: m}
	if noResume.Resuming() {
		t.Fatal("Resuming without flag")
	}
	if ok, _ := noResume.Load("s", new(payload)); ok {
		t.Fatal("Load without resume flag returned data")
	}
	withResume := &Control{Store: m, Resume: true}
	var got payload
	if ok, _ := withResume.Load("s", &got); !ok || got.N != 5 {
		t.Fatalf("resume load = %+v ok=%v", got, ok)
	}
}

func TestStatusTextRoundTrip(t *testing.T) {
	for st := Complete; st <= Failed; st++ {
		b, err := st.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got Status
		if err := got.UnmarshalText(b); err != nil {
			t.Fatalf("unmarshal %q: %v", b, err)
		}
		if got != st {
			t.Errorf("round trip %v -> %q -> %v", st, b, got)
		}
	}
	var bad Status
	if err := bad.UnmarshalText([]byte("nonsense")); err == nil {
		t.Error("unmarshal of unknown status name succeeded")
	}
}
