package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// firstMeet is the splice oracle for cur with [lo, hi) deleted: it steps
// the trial's trajectory and cur's side by side from trial position lo
// and returns the first position through last where the two flip-flop
// states agree, or -1.
func firstMeet(c *netlist.Circuit, cur logic.Sequence, lo, hi, last int) int {
	trial, committed := New(c), New(c)
	for _, v := range cur[:lo] {
		trial.Step(v)
	}
	for _, v := range cur[:hi] {
		committed.Step(v)
	}
	for p := lo; p <= last; p++ {
		v := cur[p+hi-lo]
		trial.Step(v)
		committed.Step(v)
		if slices.Equal(trial.StateSlot(0), committed.StateSlot(0)) {
			return p
		}
	}
	return -1
}

// checkEdit checks tr, the trace Edit built for cur with [lo, hi)
// deleted and produced through last: it must have produced that far, its
// produced rows must equal a cold trace's and its images the flip-flop
// half of the cold images, and it must report a splice exactly when the
// oracle finds the trajectories meeting through last. A complete trace
// must hold no source. It returns the oracle's meeting position.
func checkEdit(t *testing.T, tr *Trace, cur logic.Sequence, lo, hi, last int, label string) int {
	t.Helper()
	g := tr.tr
	trial := append(append(logic.Sequence{}, cur[:lo]...), cur[hi:]...)
	cold := coldTrace(g.owner.c, trial, Options{})
	produced := int(g.produced.Load())
	if produced <= last {
		t.Fatalf("%s: produced %d positions, asked through %d", label, produced, last)
	}
	ff := 2 * cold.sigW
	for p := 0; p < produced; p++ {
		if !slices.Equal(g.rows[p], cold.rows[p]) {
			t.Fatalf("%s: row %d = %v, cold %v", label, p, g.rows[p], cold.rows[p])
		}
		if !slices.Equal(g.imgs[p], cold.imgs[p][ff:]) {
			t.Fatalf("%s: image %d differs from the cold trace's flip-flop half", label, p)
		}
	}
	meet := firstMeet(g.owner.c, cur, lo, hi, last)
	if got := tr.Spliced(); got != (meet >= 0) {
		t.Fatalf("%s: Spliced() = %v, oracle meets at %d", label, got, meet)
	}
	if produced == len(trial) && g.src != nil {
		t.Fatalf("%s: complete trace still holds a source", label)
	}
	return meet
}

// TestTraceEditMatchesCold: omission-shaped chains through NewTrace and
// Edit — removal windows from the back to the front, each trial deleting
// part of its window and then committed or dropped at random — match
// cold traces and the splice oracle on s298, s420 and b09.
func TestTraceEditMatchesCold(t *testing.T) {
	for ci, name := range []string{"s298", "s420", "b09"} {
		t.Run(name, func(t *testing.T) {
			sc := scanDesign(t, name)
			rng := rand.New(rand.NewSource(int64(ci + 1)))
			cur := scanTests(sc, rng, 8, 3)
			good := NewSimulator(sc.Scan, 1).NewTrace(cur)
			good.Complete()
			var spliced, diverged, front, emptyTail int
			for top := len(cur); top > 0; {
				winLo := max(0, top-1-rng.Intn(24))
				for trial := 0; trial < 6 && winLo < top; trial++ {
					// Bisection tries the right half of a range first, so
					// many trials end at the window's top.
					lo := winLo + rng.Intn(top-winLo)
					hi := top
					if rng.Intn(2) == 0 {
						hi = lo + 1 + rng.Intn(top-lo)
					}
					n := len(cur) - (hi - lo)
					label := fmt.Sprintf("window [%d,%d) trial [%d,%d) of %d", winLo, top, lo, hi, len(cur))
					tr := good.Edit(append(append(logic.Sequence{}, cur[:lo]...), cur[hi:]...))
					commit := rng.Intn(2) == 0
					last := n - 1
					if commit {
						tr.Complete()
					} else if last = lo - 1 + rng.Intn(n-lo+1); last >= 0 {
						tr.Row(last)
					}
					if checkEdit(t, tr, cur, lo, hi, last, label) >= 0 {
						spliced++
					} else {
						diverged++
					}
					if lo == 0 {
						front++
					}
					if hi == len(cur) {
						emptyTail++
					}
					if !commit {
						tr.Release()
						continue
					}
					good = tr
					cur = append(cur[:lo:lo], cur[hi:]...)
					top -= hi - lo
				}
				top = winLo
			}
			if spliced == 0 || diverged == 0 || front == 0 || emptyTail == 0 {
				t.Fatalf("chain missed a case: %d spliced, %d diverged, %d at lo=0, %d with an empty tail",
					spliced, diverged, front, emptyTail)
			}
		})
	}
}

// TestTraceEditEdges pins the edits at the edges of a chain: a window at
// the front (lo = 0), one at the end (an empty tail, which copies every
// position and cannot splice), a one-vector tail, and trajectories that
// first meet at the trial's last position, where the splice adopts
// nothing but still counts.
func TestTraceEditEdges(t *testing.T) {
	sc := scanDesign(t, "s298")
	s := NewSimulator(sc.Scan, 1)
	edit := func(cur logic.Sequence, lo, hi int, label string) int {
		good := s.NewTrace(cur)
		good.Complete()
		tr := good.Edit(append(append(logic.Sequence{}, cur[:lo]...), cur[hi:]...))
		tr.Complete()
		return checkEdit(t, tr, cur, lo, hi, len(cur)-(hi-lo)-1, label)
	}

	tests := scanTests(sc, rand.New(rand.NewSource(7)), 3, 2)
	edit(tests, 0, 9, "front window")
	if meet := edit(tests, len(tests)-9, len(tests), "empty tail"); meet != -1 {
		t.Fatalf("empty tail: oracle meets at %d", meet)
	}

	// Shifting X in keeps the all-X state, so a one-vector tail meets
	// the committed trajectory at once, at its last position.
	xs := make(logic.Sequence, 6)
	for i := range xs {
		xs[i] = sc.ShiftVector(logic.X)
	}
	if meet := edit(xs, 2, 5, "one-vector tail"); meet != 2 {
		t.Fatalf("one-vector tail: oracle meets at %d, want 2", meet)
	}

	// Two scan-ins: deleting the end of the first leaves flip-flop 0
	// (the last one the second scan-in shifts out) set by an earlier
	// vector, so where that changes its value the trajectories meet only
	// once the second scan-in is complete.
	var state [2][]logic.Value
	for k := range state {
		state[k] = make([]logic.Value, sc.NumStateVars())
		for i := range state[k] {
			state[k][i] = logic.Value((i + k) % 2)
		}
	}
	loadA, _ := sc.ScanInSequence(state[0])
	loadB, _ := sc.ScanInSequence(state[1])
	loads := append(append(logic.Sequence{}, loadA...), loadB...)
	found := false
	for lo := 1; lo < len(loadA) && !found; lo++ {
		last := len(loads) - (len(loadA) - lo) - 1
		if firstMeet(sc.Scan, loads, lo, len(loadA), last) == last {
			found = true
			edit(loads, lo, len(loadA), fmt.Sprintf("meet at the last position, lo %d", lo))
		}
	}
	if !found {
		t.Fatal("no window of the first scan-in meets only at the last position")
	}
}
