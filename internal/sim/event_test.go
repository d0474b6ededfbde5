package sim

import (
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
)

// xSeq returns a random sequence over 0/1/X where each position is X
// with probability xProb (in percent).
func xSeq(rng *rand.Rand, n, width, xProb int) logic.Sequence {
	seq := make(logic.Sequence, n)
	for i := range seq {
		v := logic.NewVector(width)
		for j := range v {
			switch {
			case rng.Intn(100) < xProb:
				v[j] = logic.X
			case rng.Intn(2) == 0:
				v[j] = logic.Zero
			default:
				v[j] = logic.One
			}
		}
		seq[i] = v
	}
	return seq
}

// diffKernels runs seq × faults under both kernels at the given worker
// counts and fails the test on any DetectedAt mismatch. It returns the
// event kernel's result.
func diffKernels(t *testing.T, s *Simulator, seq logic.Sequence, faults []fault.Fault, opts Options, label string) Result {
	t.Helper()
	opts.Kernel = KernelFull
	ref := s.Run(seq, faults, opts)
	opts.Kernel = KernelEvent
	ev := s.Run(seq, faults, opts)
	for i := range faults {
		if ev.DetectedAt[i] != ref.DetectedAt[i] {
			t.Fatalf("%s: fault %d (%s): event=%d full=%d",
				label, i, faults[i].Name(s.Circuit()), ev.DetectedAt[i], ref.DetectedAt[i])
		}
	}
	return ev
}

// TestEventKernelDifferentialSynth: the event kernel must be
// bit-identical to the full-evaluation oracle over random circuits,
// X-laden random sequences and every worker count.
func TestEventKernelDifferentialSynth(t *testing.T) {
	params := []circuits.Params{
		{Name: "d1", Inputs: 4, FFs: 3, Gates: 20, Outputs: 3},
		{Name: "d2", Inputs: 6, FFs: 8, Gates: 60, Outputs: 4},
		{Name: "d3", Inputs: 3, FFs: 12, Gates: 90, Outputs: 2},
		{Name: "d4", Inputs: 8, FFs: 1, Gates: 35, Outputs: 6},
	}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for pi, p := range params {
		for trial := 0; trial < trials; trial++ {
			p.Seed = uint64(1000*pi + trial + 1)
			c, err := circuits.Synthesize(p)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(p.Seed) * 7919))
			faults := fault.Universe(c, trial%2 == 0)
			seq := xSeq(rng, 20+rng.Intn(40), c.NumInputs(), 10+10*(trial%4))
			for _, workers := range []int{1, 4} {
				s := NewSimulator(c, workers)
				diffKernels(t, s, seq, faults, Options{}, p.Name)
			}
		}
	}
}

// TestEventKernelDifferentialSubset: RunSubset must agree between
// kernels on random fault subsets.
func TestEventKernelDifferentialSubset(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)
	rng := rand.New(rand.NewSource(42))
	s := NewSimulator(c, 2)
	buf := make([]fault.Fault, 0, Slots)
	out := make([]int, 0, Slots)
	for trial := 0; trial < 8; trial++ {
		seq := xSeq(rng, 30+rng.Intn(50), c.NumInputs(), 15)
		subset := rng.Perm(len(faults))[:1+rng.Intn(40)]
		ref := s.RunSubset(seq, faults, subset, Options{Kernel: KernelFull}, nil, nil)
		got := s.RunSubset(seq, faults, subset, Options{Kernel: KernelEvent}, buf, out)
		for i, fi := range subset {
			if got.DetectedAt[i] != ref.DetectedAt[i] {
				t.Fatalf("trial %d fault %d: event=%d full=%d",
					trial, fi, got.DetectedAt[i], ref.DetectedAt[i])
			}
		}
	}
}

// TestEventKernelDifferentialScan: on a scan-translated sequence —
// state load, functional vectors, flush — the kernels must agree, and
// the event kernel must actually fast-forward dead scan-shift cycles.
func TestEventKernelDifferentialScan(t *testing.T) {
	sc := scanDesign(t, "s298")
	c := sc.Scan
	faults := fault.Universe(c, true)
	seq := scanTests(sc, rand.New(rand.NewSource(7)), 6, 2)
	for _, workers := range []int{1, 3} {
		s := NewSimulator(c, workers)
		ev := diffKernels(t, s, seq, faults, Options{}, "s298_scan")
		if ev.BatchSteps+ev.FastForwarded > int64(len(seq))*int64((len(faults)+Slots-1)/Slots) {
			t.Errorf("accounting exceeds total batch-vectors: steps=%d ffwd=%d",
				ev.BatchSteps, ev.FastForwarded)
		}
	}
	// Dead-cycle skipping is the small-batch payoff (full 64-fault
	// batches hand off to the full sweep instead): simulate a handful of
	// faults at a time — the compaction trial shape — and require real
	// fast-forwarding on the shift-heavy sequence.
	s := NewSimulator(c, 1)
	rngSub := rand.New(rand.NewSource(19))
	var ffwd int64
	for trial := 0; trial < 8; trial++ {
		subset := rngSub.Perm(len(faults))[:4]
		ref := s.RunSubset(seq, faults, subset, Options{Kernel: KernelFull}, nil, nil)
		got := s.RunSubset(seq, faults, subset, Options{Kernel: KernelEvent}, nil, nil)
		for i, fi := range subset {
			if got.DetectedAt[i] != ref.DetectedAt[i] {
				t.Fatalf("subset trial %d fault %d: event=%d full=%d",
					trial, fi, got.DetectedAt[i], ref.DetectedAt[i])
			}
		}
		ffwd += got.FastForwarded
	}
	if ffwd == 0 {
		t.Error("event kernel fast-forwarded no cycle across small-batch scan runs")
	}
}

// TestEventKernelDeterministicCounts: BatchSteps and FastForwarded are
// part of the kernel contract — identical across worker counts.
func TestEventKernelDeterministicCounts(t *testing.T) {
	c, err := circuits.Load("s344")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)
	seq := randSeq(60, c.NumInputs(), 5)
	base := NewSimulator(c, 1).Run(seq, faults, Options{})
	for _, workers := range []int{2, 8} {
		r := NewSimulator(c, workers).Run(seq, faults, Options{})
		if r.BatchSteps != base.BatchSteps || r.FastForwarded != base.FastForwarded {
			t.Errorf("workers=%d: steps=%d ffwd=%d, want %d/%d",
				workers, r.BatchSteps, r.FastForwarded, base.BatchSteps, base.FastForwarded)
		}
		for i := range faults {
			if r.DetectedAt[i] != base.DetectedAt[i] {
				t.Fatalf("workers=%d fault %d: %d want %d", workers, i, r.DetectedAt[i], base.DetectedAt[i])
			}
		}
	}
}
