package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/scan"
)

// scanDesign loads a catalog circuit and inserts its scan chain.
func scanDesign(t *testing.T, name string) *scan.Circuit {
	t.Helper()
	c, err := circuits.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// scanTests builds a sequence of n scan tests: a full scan-in of a random
// state, funct functional vectors and a flush from flip-flop 0.
func scanTests(sc *scan.Circuit, rng *rand.Rand, n, funct int) logic.Sequence {
	var seq logic.Sequence
	for test := 0; test < n; test++ {
		state := make([]logic.Value, sc.NumStateVars())
		for i := range state {
			state[i] = logic.Value(rng.Intn(2))
		}
		load, err := sc.ScanInSequence(state)
		if err != nil {
			panic(err)
		}
		seq = append(seq, load...)
		for f := 0; f < funct; f++ {
			orig := logic.NewVector(sc.Orig.NumInputs())
			for i := range orig {
				orig[i] = logic.Value(rng.Intn(2))
			}
			seq = append(seq, sc.FunctionalVector(orig))
		}
		seq = append(seq, sc.FlushVectors(0)...)
	}
	return seq
}

// coldTrace is the fully produced trace of seq on a fresh simulator.
func coldTrace(c *netlist.Circuit, seq logic.Sequence, opts Options) *goodTrace {
	tr := NewSimulator(c, 1).newTrace(seq, opts, false, nil)
	tr.ensure(len(seq) - 1)
	return tr
}

// checkReuse runs seq through the pooled simulator s and through a cold
// one. DetectedAt, BatchSteps and FastForwarded must agree, every row
// and image s's trace has produced must equal the cold trace's, and the
// cached trace's splice source must not hold a source of its own. It
// returns the cached trace.
func checkReuse(t *testing.T, s *Simulator, seq logic.Sequence, faults []fault.Fault, opts Options, label string) *goodTrace {
	t.Helper()
	got := s.Run(seq, faults, opts)
	want := NewSimulator(s.c, 1).Run(seq, faults, opts)
	for fi := range faults {
		if got.DetectedAt[fi] != want.DetectedAt[fi] {
			t.Fatalf("%s: fault %d detected at %d, cold %d", label, fi, got.DetectedAt[fi], want.DetectedAt[fi])
		}
	}
	if got.BatchSteps != want.BatchSteps || got.FastForwarded != want.FastForwarded {
		t.Fatalf("%s: steps/fastforwarded %d/%d, cold %d/%d", label,
			got.BatchSteps, got.FastForwarded, want.BatchSteps, want.FastForwarded)
	}
	tr := s.cached
	checkTrace(t, tr, coldTrace(s.c, seq, opts), label)
	if sourceChained(s) {
		t.Fatalf("%s: the cached trace's source holds a source of its own", label)
	}
	return tr
}

// sourceChained reports whether the cached trace's splice source holds a
// source of its own. It is safe while Runs are in flight: a source is
// frozen, so its own source field changes only under trMu.
func sourceChained(s *Simulator) bool {
	s.trMu.Lock()
	defer s.trMu.Unlock()
	tr := s.cached
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.src != nil && tr.src.src != nil
}

// checkTrace compares every produced position of tr with cold.
func checkTrace(t *testing.T, tr, cold *goodTrace, label string) {
	t.Helper()
	for p := 0; p < int(tr.produced.Load()); p++ {
		if !slices.Equal(tr.rows[p], cold.rows[p]) {
			t.Fatalf("%s: row %d = %v, cold %v", label, p, tr.rows[p], cold.rows[p])
		}
		if tr.withImages && !slices.Equal(tr.imgs[p], cold.imgs[p]) {
			t.Fatalf("%s: image %d differs from the cold trace's", label, p)
		}
	}
}

func spliceCounts(reg *obs.Registry) (hits, steps int64) {
	snap := reg.Snapshot().Counters
	return snap["sim.trace_splice_hits"], snap["sim.trace_splice_steps"]
}

// editTrial derives the next trial from cur the way compaction does:
// insert a block in front of a kept tail (restoration), delete a middle
// window (omission), or replace a middle block. Blocks come from pool,
// so inserted vectors are new to cur's neighbourhood.
func editTrial(cur, pool logic.Sequence, rng *rand.Rand) logic.Sequence {
	block := func() logic.Sequence {
		lo := rng.Intn(len(pool))
		hi := min(len(pool), lo+1+rng.Intn(40))
		return pool[lo:hi]
	}
	i := rng.Intn(len(cur))
	j := min(len(cur), i+1+rng.Intn(30))
	op := rng.Intn(3)
	if len(cur) > 3*len(pool) {
		op = 1
	}
	next := append(logic.Sequence{}, cur[:i]...)
	switch op {
	case 0: // insert before the kept tail cur[i:]
		next = append(append(next, block()...), cur[i:]...)
	case 1: // delete cur[i:j]
		next = append(next, cur[j:]...)
	default: // replace cur[i:j]
		next = append(append(next, block()...), cur[j:]...)
	}
	if len(next) == 0 {
		return cur
	}
	return next
}

// trialFaults picks the fault list of one trial: restoration checks one
// fault or a lookahead group, and a whole-list run covers the rest.
func trialFaults(faults []fault.Fault, rng *rand.Rand) []fault.Fault {
	switch rng.Intn(3) {
	case 0:
		fi := rng.Intn(len(faults))
		return faults[fi : fi+1]
	case 1:
		lo := rng.Intn(len(faults))
		return faults[lo:min(len(faults), lo+2*Slots)]
	}
	return faults
}

// TestTraceSpliceMatchesCold: on seeded chains of restoration- and
// omission-shaped trials over scan tests, a pooled simulator's spliced
// traces must equal cold traces row by row and image by image, its
// results must equal cold runs, and splices must actually happen.
func TestTraceSpliceMatchesCold(t *testing.T) {
	for ci, name := range []string{"s298", "s420", "b09"} {
		sc := scanDesign(t, name)
		faults := fault.Universe(sc.Scan, true)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(10*ci + workers)))
				pool := scanTests(sc, rng, 6, 3)
				s := NewSimulator(sc.Scan, workers)
				reg := obs.NewRegistry()
				s.Observe(reg)
				cur := pool[len(pool)/2:]
				for trial := 0; trial < 30; trial++ {
					checkReuse(t, s, cur, trialFaults(faults, rng), Options{}, fmt.Sprintf("trial %d", trial))
					cur = editTrial(cur, pool, rng)
				}
				if hits, steps := spliceCounts(reg); hits == 0 || steps == 0 {
					t.Fatalf("no splice over the chain: %d hits, %d steps", hits, steps)
				}
			})
		}
	}
}

// TestTraceSpliceStopsAtSourceLimit: a source that produced only part of
// its tail lends exactly what it has — the splice is where a cold
// comparison of the two trajectories first agrees and it ends at the
// source's produced limit — and the trace steps on exactly from there.
func TestTraceSpliceStopsAtSourceLimit(t *testing.T) {
	sc := scanDesign(t, "s298")
	faults := fault.Universe(sc.Scan, true)
	rng := rand.New(rand.NewSource(5))
	tail := scanTests(sc, rng, 4, 2)
	block := scanTests(sc, rng, 1, 2)
	seq := append(append(logic.Sequence{}, block...), tail...)

	s := NewSimulator(sc.Scan, 1)
	reg := obs.NewRegistry()
	s.Observe(reg)
	limit := len(tail) * 3 / 4
	src := s.acquireTrace(tail, Options{})
	src.ensure(limit - 1)
	s.releaseTrace(src)

	tr := checkReuse(t, s, seq, faults, Options{}, "partial source")
	tr.ensure(len(seq) - 1)
	coldNew, coldOld := coldTrace(sc.Scan, seq, Options{}), coldTrace(sc.Scan, tail, Options{})
	checkTrace(t, tr, coldNew, "stepped past the limit")

	off := len(block)
	ff := 2 * tr.sigW
	p := off
	for p < len(seq) && !slices.Equal(coldNew.imgs[p][ff:], coldOld.imgs[p-off][ff:]) {
		p++
	}
	if p-off+1 >= limit {
		t.Fatalf("trajectories first agree at tail position %d, past the source limit %d", p-off, limit)
	}
	hits, steps := spliceCounts(reg)
	if want := int64(limit + off - p - 1); hits != 1 || steps != want {
		t.Fatalf("splice: %d hits, %d steps; want 1 hit, %d steps", hits, steps, want)
	}
	if tr.src != nil {
		t.Fatal("source still held after the splice")
	}
}

// TestTraceSpliceNeverReconverges: two scan-ins of complementary states
// followed by fewer shifts than the chain is long never reach the same
// state, so there is no splice; rows stay exact and the source is
// dropped once it has nothing further to offer.
func TestTraceSpliceNeverReconverges(t *testing.T) {
	sc := scanDesign(t, "s420")
	faults := fault.Universe(sc.Scan, true)
	state := make([]logic.Value, sc.NumStateVars())
	comp := make([]logic.Value, sc.NumStateVars())
	for i := range state {
		state[i] = logic.Value(i % 2)
		comp[i] = 1 - state[i]
	}
	loadA, _ := sc.ScanInSequence(state)
	loadB, _ := sc.ScanInSequence(comp)
	var shifts logic.Sequence
	for i := 0; i < sc.NumStateVars()-1; i++ {
		shifts = append(shifts, sc.ShiftVector(logic.Value(i%2)))
	}
	a := append(append(logic.Sequence{}, loadA...), shifts...)
	b := append(append(logic.Sequence{}, loadB...), shifts...)

	s := NewSimulator(sc.Scan, 2)
	reg := obs.NewRegistry()
	s.Observe(reg)
	s.acquireTrace(a, Options{}).ensure(len(a) - 1)
	s.releaseTrace(s.cached)
	tr := checkReuse(t, s, b, faults, Options{}, "diverged tail")
	tr.ensure(len(b) - 1)
	checkTrace(t, tr, coldTrace(sc.Scan, b, Options{}), "diverged tail, whole")
	if hits, _ := spliceCounts(reg); hits != 0 {
		t.Fatalf("%d splices between diverged trajectories", hits)
	}
	if tr.src != nil {
		t.Fatal("source still held after it had nothing further to offer")
	}
}

// TestTraceSpliceConcurrentCallers: callers running different trial
// chains on one Simulator at once evict traces that are still in use;
// every result must still equal a cold run, and no source may chain.
func TestTraceSpliceConcurrentCallers(t *testing.T) {
	sc := scanDesign(t, "s298")
	faults := fault.Universe(sc.Scan, true)
	pool := scanTests(sc, rand.New(rand.NewSource(11)), 6, 2)
	s := NewSimulator(sc.Scan, 2)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			cur := pool[g*len(pool)/8:]
			for trial := 0; trial < 12; trial++ {
				fs := trialFaults(faults, rng)
				got := s.Run(cur, fs, Options{})
				want := NewSimulator(sc.Scan, 1).Run(cur, fs, Options{})
				if !slices.Equal(got.DetectedAt, want.DetectedAt) || got.BatchSteps != want.BatchSteps {
					errs <- fmt.Sprintf("caller %d trial %d differs from a cold run", g, trial)
					return
				}
				if sourceChained(s) {
					errs <- fmt.Sprintf("caller %d trial %d: the cached trace's source holds a source of its own", g, trial)
					return
				}
				cur = editTrial(cur, pool, rng)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
