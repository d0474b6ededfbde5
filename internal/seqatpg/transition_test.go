package seqatpg

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/transition"
)

func TestGenerateTransitionS27(t *testing.T) {
	sc := loadScan(t, "s27")
	tf := transition.Universe(sc.Scan)
	res := GenerateTransition(sc, tf, Options{Seed: 1})
	cov := 100 * float64(res.NumDetected()) / float64(len(tf))
	if cov < 70 {
		t.Errorf("transition ATPG coverage on s27 = %.2f%%, want >= 70%%", cov)
	}
	// Claims confirmed by the independent transition fault simulator.
	check := transition.Run(sc.Scan, res.Sequence, tf)
	for fi := range tf {
		if res.DetectedAt[fi] != sim.NotDetected && check.DetectedAt[fi] == sim.NotDetected {
			t.Errorf("transition fault %s claimed but unconfirmed", tf[fi].Name(sc.Scan))
		}
	}
}

func TestGenerateTransitionVsGrading(t *testing.T) {
	sc := loadScan(t, "s298")
	tf := transition.Universe(sc.Scan)
	// Free coverage from grading a stuck-at sequence vs dedicated
	// targeting. Neither dominates in principle (grading rides on a
	// longer, PODEM-guided sequence; targeting chases the remainder),
	// but targeting must land in the same coverage class and the
	// combined sequence must cover at least as much as either alone.
	sa := Generate(sc, fault.Universe(sc.Scan, true), Options{Seed: 1, Passes: 1})
	graded := transition.Run(sc.Scan, sa.Sequence, tf)
	targeted := GenerateTransition(sc, tf, Options{Seed: 1})
	if targeted.NumDetected()*10 < graded.NumDetected()*8 {
		t.Errorf("targeted transition ATPG (%d) far below free grading (%d)",
			targeted.NumDetected(), graded.NumDetected())
	}
	combined := append(sa.Sequence.Clone(), targeted.Sequence...)
	both := transition.Run(sc.Scan, combined, tf)
	if both.NumDetected() < graded.NumDetected() || both.NumDetected() < targeted.NumDetected() {
		t.Error("combined sequence covers less than a component")
	}
	t.Logf("graded %d, targeted %d, combined %d of %d",
		graded.NumDetected(), targeted.NumDetected(), both.NumDetected(), len(tf))
}

// TestGenerateTransitionDeterministic: the same seed gives the same
// sequence and detection times.
func TestGenerateTransitionDeterministic(t *testing.T) {
	sc := loadScan(t, "s27")
	tf := transition.Universe(sc.Scan)
	a := GenerateTransition(sc, tf, Options{Seed: 5, Passes: 1})
	b := GenerateTransition(sc, tf, Options{Seed: 5, Passes: 1})
	sameTransitionResult(t, "rerun", a, b)
}

// TestGenerateTransitionWorkerDeterminism: on s420 the transition faults
// span enough batches for Manager.Append to step them in parallel, and
// the sequence and detection times are identical at every worker count.
func TestGenerateTransitionWorkerDeterminism(t *testing.T) {
	sc := loadScan(t, "s420")
	tf := transition.Universe(sc.Scan)
	if n := (len(tf) + sim.Slots - 1) / sim.Slots; n < minParallelBatches {
		t.Fatalf("%d fault batches never take the parallel path (%d)", n, minParallelBatches)
	}
	ref := GenerateTransition(sc, tf, Options{Seed: 3, Passes: 1, Workers: 1})
	for _, w := range []int{2, 4} {
		got := GenerateTransition(sc, tf, Options{Seed: 3, Passes: 1, Workers: w})
		sameTransitionResult(t, fmt.Sprintf("workers=%d", w), ref, got)
	}
}

func sameTransitionResult(t *testing.T, label string, want, got TransitionResult) {
	t.Helper()
	if got.Sequence.String() != want.Sequence.String() {
		t.Fatalf("%s: sequence of %d vectors differs from the reference's %d", label, len(got.Sequence), len(want.Sequence))
	}
	if !slices.Equal(got.DetectedAt, want.DetectedAt) {
		t.Fatalf("%s: DetectedAt differs", label)
	}
}
