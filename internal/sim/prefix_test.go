package sim

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

// TestTracePrefixReuse: a Run whose sequence shares a prefix with the
// previously cached trace must produce results identical to a cold
// simulator, and the reuse counters must record the seeding.
func TestTracePrefixReuse(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)
	base := randSeq(200, c.NumInputs(), 3)

	s := NewSimulator(c, 2)
	reg := obs.NewRegistry()
	s.Observe(reg)
	s.Run(base, faults, Options{})

	// Trial shapes compaction produces: drop a middle window, drop a
	// suffix, replace a suffix, extend past the old length.
	trials := []logic.Sequence{
		append(append(logic.Sequence{}, base[:80]...), base[100:]...),
		base[:150],
		append(append(logic.Sequence{}, base[:120]...), randSeq(30, c.NumInputs(), 9)...),
		append(append(logic.Sequence{}, base...), randSeq(25, c.NumInputs(), 10)...),
	}
	for i, seq := range trials {
		got := s.Run(seq, faults, Options{})
		want := NewSimulator(c, 1).Run(seq, faults, Options{})
		for fi := range faults {
			if got.DetectedAt[fi] != want.DetectedAt[fi] {
				t.Fatalf("trial %d fault %d: detected at %d, want %d",
					i, fi, got.DetectedAt[fi], want.DetectedAt[fi])
			}
		}
		if got.BatchSteps != want.BatchSteps {
			t.Fatalf("trial %d: BatchSteps %d, want %d", i, got.BatchSteps, want.BatchSteps)
		}
	}
	snap := reg.Snapshot()
	if hits := snap.Counters["sim.trace_prefix_hits"]; hits < int64(len(trials)) {
		t.Fatalf("trace_prefix_hits = %d, want >= %d", hits, len(trials))
	}
	if steps := snap.Counters["sim.trace_prefix_steps"]; steps < 80 {
		t.Fatalf("trace_prefix_steps = %d, want >= 80", steps)
	}
}
