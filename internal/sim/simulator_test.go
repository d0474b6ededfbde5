package sim

import (
	"runtime"
	"strings"
	"sync/atomic"
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

// goroutineID returns the calling goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestParallel: every index is handed out exactly once, to a worker
// number below the worker count; one worker runs inline on the caller's
// goroutine; and once a call returns false no further index is handed
// out.
func TestParallel(t *testing.T) {
	const n = 1000
	caller := goroutineID()
	for _, workers := range []int{1, 2, 4} {
		var visits [n]atomic.Int32
		var offCaller atomic.Bool
		Parallel(workers, n, func(w, i int) bool {
			if w < 0 || w >= workers {
				t.Errorf("workers=%d: index %d handed to worker %d", workers, i, w)
			}
			visits[i].Add(1)
			if goroutineID() != caller {
				offCaller.Store(true)
			}
			return true
		})
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
		if inline := !offCaller.Load(); inline != (workers == 1) {
			t.Errorf("workers=%d: ran inline = %v", workers, inline)
		}

		// Every call from index k on returns false. Indices are handed
		// out in increasing order, so all of 0..k-1 run; a worker's false
		// ends its calls, so at most one index from k on runs per worker,
		// and with one worker exactly k+1 calls run.
		const k = 100
		var calls, late atomic.Int32
		stoppedWorker := make([]atomic.Bool, workers)
		Parallel(workers, n, func(w, i int) bool {
			calls.Add(1)
			if stoppedWorker[w].Load() {
				t.Errorf("workers=%d: worker %d handed index %d after returning false", workers, w, i)
			}
			if i < k {
				return true
			}
			late.Add(1)
			stoppedWorker[w].Store(true)
			return false
		})
		if got := int(late.Load()); got < 1 || got > workers {
			t.Errorf("workers=%d: %d indices from %d on ran, want 1..%d", workers, got, k, workers)
		}
		if got := int(calls.Load() - late.Load()); got != k {
			t.Errorf("workers=%d: %d indices below %d ran, want %d", workers, got, k, k)
		}
		if workers == 1 && calls.Load() != k+1 {
			t.Errorf("one worker: %d calls, want %d", calls.Load(), k+1)
		}

		// Only index k returns false: the other workers stop too, long
		// before they could run the remaining million indices.
		const big = 1 << 20
		calls.Store(0)
		Parallel(workers, big, func(_, i int) bool {
			calls.Add(1)
			return i != k
		})
		if got := calls.Load(); got <= k || got >= big {
			t.Errorf("workers=%d: %d calls after a false at index %d of %d", workers, got, k, big)
		}
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
