package sim

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
)

func randSeq(n, width int, seed uint64) logic.Sequence {
	rng := logic.NewRandFiller(seed)
	seq := make(logic.Sequence, n)
	for i := range seq {
		v := make(logic.Vector, width)
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}
	return seq
}

// TestSimulatorDeterminism: DetectedAt and BatchSteps must be identical
// for every worker count, and identical to the package-level serial Run.
func TestSimulatorDeterminism(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s953"} {
		t.Run(name, func(t *testing.T) {
			c, err := circuits.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			faults := fault.Universe(c, true)
			seq := randSeq(120, c.NumInputs(), 5)

			ref := Run(c, seq, faults, Options{})
			for _, workers := range []int{1, 2, 8} {
				got := NewSimulator(c, workers).Run(seq, faults, Options{})
				if got.BatchSteps != ref.BatchSteps {
					t.Errorf("workers=%d: BatchSteps %d, want %d", workers, got.BatchSteps, ref.BatchSteps)
				}
				for i := range faults {
					if got.DetectedAt[i] != ref.DetectedAt[i] {
						t.Fatalf("workers=%d: fault %d detected at %d, want %d",
							workers, i, got.DetectedAt[i], ref.DetectedAt[i])
					}
				}
			}
		})
	}
}

// TestSimulatorPoolReuse: a machine released with injected faults and
// advanced state must come back from Acquire indistinguishable from a
// fresh New.
func TestSimulatorPoolReuse(t *testing.T) {
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)
	s := NewSimulator(c, 1)

	m := s.Acquire()
	if err := m.InjectFault(faults[0], 1); err != nil {
		t.Fatal(err)
	}
	for _, v := range randSeq(10, c.NumInputs(), 3) {
		m.Step(v)
	}
	s.Release(m)

	m2 := s.Acquire()
	if m2.hasFaults {
		t.Error("pooled machine still has faults after Acquire")
	}
	for fi, v := range m2.StateSlot(0) {
		if v != logic.X {
			t.Errorf("pooled machine flip-flop %d is %v after Acquire, want X", fi, v)
		}
	}
	s.Release(m2)

	// A pooled-machine Run must equal a fresh-machine Run.
	seq := randSeq(60, c.NumInputs(), 9)
	for _, opts := range []Options{{}, {Kernel: KernelFull}} {
		ref := Run(c, seq, faults, opts)
		got := s.Run(seq, faults, opts)
		for i := range faults {
			if got.DetectedAt[i] != ref.DetectedAt[i] {
				t.Fatalf("kernel %d: fault %d detected at %d after pool reuse, want %d",
					opts.Kernel, i, got.DetectedAt[i], ref.DetectedAt[i])
			}
		}
	}
}

// TestRunSubsetReuse: caller-provided scratch buffers must not change
// results, and a reused out slice must be resized to the subset.
func TestRunSubsetReuse(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)
	seq := randSeq(80, c.NumInputs(), 13)
	s := NewSimulator(c, 2)

	subset1 := []int{0, 5, 9, 70, len(faults) - 1}
	subset2 := []int{1, 2}

	fresh1 := s.RunSubset(seq, faults, subset1, Options{}, nil, nil)
	fresh2 := s.RunSubset(seq, faults, subset2, Options{}, nil, nil)

	buf := make([]fault.Fault, 0, Slots)
	out := make([]int, 0, Slots)
	got1 := s.RunSubset(seq, faults, subset1, Options{}, buf, out)
	if len(got1.DetectedAt) != len(subset1) {
		t.Fatalf("reused-buffer result has %d entries, want %d", len(got1.DetectedAt), len(subset1))
	}
	for i, at := range fresh1.DetectedAt {
		if got1.DetectedAt[i] != at {
			t.Errorf("fault %d: reused-buffer result %d, want %d", subset1[i], got1.DetectedAt[i], at)
		}
	}
	// Second call with the same out slice must resize to the new subset.
	got2 := s.RunSubset(seq, faults, subset2, Options{}, buf, got1.DetectedAt)
	if len(got2.DetectedAt) != len(subset2) {
		t.Fatalf("second reuse has %d entries, want %d (stale entries not truncated?)", len(got2.DetectedAt), len(subset2))
	}
	for i, at := range fresh2.DetectedAt {
		if got2.DetectedAt[i] != at {
			t.Errorf("fault %d: second reuse result %d, want %d", subset2[i], got2.DetectedAt[i], at)
		}
	}
}
