// Package runctl is the run-control layer threaded through the
// library's long-running engines: sequential test generation
// (seqatpg.Generate), static compaction (compact.RestoreOpts/OmitOpts)
// and fault simulation (sim.Simulator.Run). A Control carries a Budget
// (context cancellation and deadline, attempt/trial caps) and an
// optional checkpoint Store; engines poll it at their natural work
// boundaries — per fault attempt, per compaction trial, per fault batch
// — and, when told to stop, persist their state and return partial
// results tagged with an explicit Status instead of silently truncated
// ones. A run resumed from a checkpoint produces output bit-identical
// to an uninterrupted run.
//
// All Control methods are safe on a nil receiver (every check reports
// "keep going"), so engines poll unconditionally and callers that want
// no budgeting simply leave the Options field nil.
package runctl

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Status classifies how an engine run ended.
type Status uint8

const (
	// Complete: the run finished all its work without a checkpoint
	// restore. The zero value, so results from engines that were never
	// given a Control read as complete.
	Complete Status = iota
	// Resumed: the run restored state from a checkpoint and then
	// finished all remaining work; the result equals an uninterrupted
	// run bit for bit.
	Resumed
	// Canceled: the budget's context was canceled (e.g. SIGINT); the
	// result holds everything finished before the stop.
	Canceled
	// DeadlineExceeded: the wall-clock budget ran out.
	DeadlineExceeded
	// BudgetExhausted: the attempt or trial cap was reached.
	BudgetExhausted
	// Failed: the run stopped on an internal error (e.g. a recovered
	// worker panic); the accompanying error has the detail.
	Failed
)

var statusNames = [...]string{
	Complete:         "complete",
	Resumed:          "resumed",
	Canceled:         "canceled",
	DeadlineExceeded: "deadline exceeded",
	BudgetExhausted:  "budget exhausted",
	Failed:           "failed",
}

// String returns the lower-case human-readable status name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "unknown"
}

// MarshalText encodes the status as its String() name, so structs
// embedding a Status (job records, checkpoint envelopes) serialize it
// readably instead of as a bare integer.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a status name produced by MarshalText.
func (s *Status) UnmarshalText(text []byte) error {
	name := string(text)
	for st, n := range statusNames {
		if n == name {
			*s = Status(st)
			return nil
		}
	}
	return fmt.Errorf("runctl: unknown status %q", name)
}

// Stopped reports whether the status marks an interrupted run whose
// results are partial (and which a checkpoint can continue).
func (s Status) Stopped() bool {
	switch s {
	case Canceled, DeadlineExceeded, BudgetExhausted, Failed:
		return true
	}
	return false
}

// Done reports whether the status marks a run that finished all its
// work (directly or after a resume).
func (s Status) Done() bool { return s == Complete || s == Resumed }

// Final maps a finished run onto Complete or Resumed depending on
// whether it restored state from a checkpoint.
func Final(resumed bool) Status {
	if resumed {
		return Resumed
	}
	return Complete
}

// Budget bounds a run. The zero value imposes no bound.
type Budget struct {
	// Ctx, when non-nil, cancels the run; engines observe the
	// cancellation at their next work boundary (Canceled status, or
	// DeadlineExceeded when the context expired on its own deadline).
	// A wall-clock budget is a context.WithTimeout context; one Control
	// shared by a generate→restore→omit pipeline bounds the whole
	// pipeline.
	Ctx context.Context
	// MaxAttempts, when positive, caps the per-fault generation
	// attempts charged via Control.Attempt.
	MaxAttempts int64
	// MaxTrials, when positive, caps the compaction trials charged via
	// Control.Trial.
	MaxTrials int64
	// StopAfterPolls, when positive, stops the run with Canceled at the
	// n-th cancellation poll (every ShouldStop, Attempt and Trial call
	// counts as one poll). It is an interrupt-injection hook for
	// correctness harnesses (internal/xcheck): unlike a deadline it
	// lands the stop on an exact, reproducible work boundary — poll
	// sequences are deterministic for single-worker engines only — so
	// checkpoint/resume bit-identity can be checked at arbitrary
	// interrupt points without wall-clock flakiness.
	StopAfterPolls int64
}

// Control threads a Budget and an optional checkpoint Store through one
// run (possibly spanning several engines). Construct with a literal. A
// stop is sticky: once any poll reports a stop status, every later poll
// reports the same status, so downstream pipeline stages wind down too.
type Control struct {
	// Budget bounds the run.
	Budget Budget
	// Store, when non-nil, receives engine checkpoints. Engines save
	// unconditionally when they stop or finish and periodically (see
	// SaveEvery) at work boundaries in between.
	Store Store
	// Resume makes engines load their section from Store and continue
	// from the persisted state instead of starting fresh.
	Resume bool
	// SaveEvery throttles periodic checkpoint saves to every n-th
	// boundary (<= 1 saves at every boundary). Saves at stop or
	// completion are never throttled.
	SaveEvery int

	attempts atomic.Int64
	trials   atomic.Int64
	ticks    atomic.Int64
	polls    atomic.Int64
	stopped  atomic.Int32 // 0 = running, else the sticky Status
}

// stop records st as the sticky stop status (first stop wins) and
// returns the effective status.
func (c *Control) stop(st Status) Status {
	if c.stopped.CompareAndSwap(0, int32(st)) {
		return st
	}
	return Status(c.stopped.Load())
}

// Fail records an internal error stop (first stop wins).
func (c *Control) Fail() {
	if c == nil {
		return
	}
	c.stop(Failed)
}

// ShouldStop is the cancellation poll engines place at work boundaries:
// it reports a sticky prior stop, context cancellation or an expired
// deadline. The boolean is false while the run may continue.
func (c *Control) ShouldStop() (Status, bool) {
	if c == nil {
		return Complete, false
	}
	if st := Status(c.stopped.Load()); st != 0 {
		return st, true
	}
	if ctx := c.Budget.Ctx; ctx != nil {
		switch ctx.Err() {
		case nil:
		case context.DeadlineExceeded:
			return c.stop(DeadlineExceeded), true
		default:
			return c.stop(Canceled), true
		}
	}
	if n := c.Budget.StopAfterPolls; n > 0 && c.polls.Add(1) >= n {
		return c.stop(Canceled), true
	}
	return Complete, false
}

// Attempt charges one generation attempt against the budget and polls
// cancellation. When it reports a stop the attempt must not be
// performed; the engine checkpoints and returns partial results.
func (c *Control) Attempt() (Status, bool) {
	if c == nil {
		return Complete, false
	}
	if st, stop := c.ShouldStop(); stop {
		return st, true
	}
	if max := c.Budget.MaxAttempts; max > 0 && c.attempts.Add(1) > max {
		return c.stop(BudgetExhausted), true
	}
	return Complete, false
}

// Trial charges one compaction trial against the budget and polls
// cancellation, with the same contract as Attempt.
func (c *Control) Trial() (Status, bool) {
	if c == nil {
		return Complete, false
	}
	if st, stop := c.ShouldStop(); stop {
		return st, true
	}
	if max := c.Budget.MaxTrials; max > 0 && c.trials.Add(1) > max {
		return c.stop(BudgetExhausted), true
	}
	return Complete, false
}

// Resuming reports whether engines should load state from the Store.
func (c *Control) Resuming() bool {
	return c != nil && c.Store != nil && c.Resume
}

// Load reads the named checkpoint section into v when resuming. It
// returns false when not resuming or when the section is absent.
func (c *Control) Load(section string, v any) (bool, error) {
	if !c.Resuming() {
		return false, nil
	}
	return c.Store.Load(section, v)
}

// Save persists the named checkpoint section unconditionally (used when
// an engine stops or finishes). It is a no-op without a Store.
func (c *Control) Save(section string, v any) error {
	if c == nil || c.Store == nil {
		return nil
	}
	return c.Store.Save(section, v)
}

// Checkpoint is the throttled periodic variant of Save: only every
// SaveEvery-th call actually persists.
func (c *Control) Checkpoint(section string, v any) error {
	if c == nil || c.Store == nil {
		return nil
	}
	if n := c.SaveEvery; n > 1 && c.ticks.Add(1)%int64(n) != 0 {
		return nil
	}
	return c.Store.Save(section, v)
}
