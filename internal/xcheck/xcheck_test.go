package xcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/scan"
)

// TestGenerateDeterministic: a workload is a pure function of
// (circuit, seed) — regeneration reproduces every field exactly.
func TestGenerateDeterministic(t *testing.T) {
	for _, spec := range []string{"s27", SynthCircuit} {
		a, err := Generate(spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		if a.Seq.String() != b.Seq.String() {
			t.Errorf("%s: sequences differ", spec)
		}
		if len(a.Faults) != len(b.Faults) || len(a.Subset) != len(b.Subset) || len(a.Tests) != len(b.Tests) {
			t.Errorf("%s: shapes differ: %d/%d faults, %d/%d subset, %d/%d tests",
				spec, len(a.Faults), len(b.Faults), len(a.Subset), len(b.Subset), len(a.Tests), len(b.Tests))
		}
		c, err := Generate(spec, 43)
		if err != nil {
			t.Fatal(err)
		}
		if a.Seq.String() == c.Seq.String() {
			t.Errorf("%s: seeds 42 and 43 generated the same sequence", spec)
		}
	}
}

// TestInvariantsHoldOnFixedSeeds is the harness's own tier-1 gate: every
// invariant passes on a fixed mixed workload set. cmd/xcheck covers the
// full catalog; this keeps the package self-checking under plain
// `go test`.
func TestInvariantsHoldOnFixedSeeds(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	violations, sum := Run(Config{
		Circuits: []string{"s27", "b02", "b06", SynthCircuit},
		Seeds:    seeds,
		Shrink:   true,
	})
	t.Log(sum.String())
	for _, v := range violations {
		t.Errorf("violation:\n%s", v.Repro())
	}
	if sum.Workloads != 4*seeds {
		t.Errorf("covered %d workloads, want %d", sum.Workloads, 4*seeds)
	}
}

// plantedInvariant fails whenever any vector and any fault remain, so
// the shrinker must grind the workload down to exactly one of each (and
// zero conventional tests).
var plantedInvariant = Invariant{
	Name: "planted/always-fails",
	Check: func(w *Workload) string {
		if len(w.Seq) >= 1 && len(w.Faults) >= 1 {
			return "planted failure"
		}
		return ""
	},
}

// TestShrinkGolden pins the shrinker's behavior on one fixed seeded
// workload: the minimized repro for the planted invariant must match
// the committed golden byte for byte. Regenerate with
// `XCHECK_UPDATE=1 go test ./internal/xcheck -run TestShrinkGolden`.
func TestShrinkGolden(t *testing.T) {
	w, err := Generate("s27", 1)
	if err != nil {
		t.Fatal(err)
	}
	detail := plantedInvariant.Check(w)
	if detail == "" {
		t.Fatal("planted invariant did not fail")
	}
	v := Shrink(plantedInvariant, w, detail, 0)
	if len(v.Workload.Seq) != 1 || len(v.Workload.Faults) != 1 || len(v.Workload.Tests) != 0 {
		t.Fatalf("shrunk to %d vectors / %d faults / %d tests, want 1 / 1 / 0",
			len(v.Workload.Seq), len(v.Workload.Faults), len(v.Workload.Tests))
	}
	got := v.Repro()
	golden := filepath.Join("testdata", "shrink_golden.txt")
	if update() {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("shrunk repro drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func update() bool { return os.Getenv("XCHECK_UPDATE") != "" }

// TestRunReportsAndShrinksViolations: the runner surfaces a failing
// invariant as a violation whose repro parses back into a sequence.
func TestRunReportsAndShrinksViolations(t *testing.T) {
	violations, sum := Run(Config{
		Circuits:   []string{"s27", "b02"},
		Seeds:      1,
		Shrink:     true,
		Invariants: []Invariant{plantedInvariant},
	})
	if len(violations) != 2 {
		t.Fatalf("got %d violations, want 2", len(violations))
	}
	if sum.Checks != 2 || sum.Workloads != 2 {
		t.Errorf("summary %+v", sum)
	}
	for _, v := range violations {
		repro := v.Repro()
		if !strings.Contains(repro, "planted failure") || !strings.Contains(repro, "seed:") {
			t.Errorf("repro missing fields:\n%s", repro)
		}
		seq, err := ParseReproSequence(repro)
		if err != nil {
			t.Errorf("repro does not parse: %v", err)
		}
		if len(seq) != len(v.Workload.Seq) {
			t.Errorf("parsed %d vectors, workload has %d", len(seq), len(v.Workload.Seq))
		}
	}
}

// TestRunDurationBudgetReportsSkips: an elapsed budget is never a
// silent cap — skipped workloads are counted in the summary.
func TestRunDurationBudgetReportsSkips(t *testing.T) {
	_, sum := Run(Config{
		Circuits: []string{"s27", "s27", "s27"},
		Seeds:    1,
		Duration: 1, // 1ns: everything after the first time check skips
	})
	if sum.Skipped == 0 {
		t.Fatalf("no skips reported under an exhausted budget: %+v", sum)
	}
	if !strings.Contains(sum.String(), "SKIPPED") {
		t.Errorf("summary hides skips: %s", sum)
	}
}

// TestRefDetectMatrix cross-checks the reference simulator directly on
// a few hand-posed cases (the diff/reference invariant covers it
// broadly; this keeps a fast, dependency-free sanity check).
func TestRefDetectMatrix(t *testing.T) {
	w, err := Generate("s27", 7)
	if err != nil {
		t.Fatal(err)
	}
	det := RefDetectAll(w.Design.Scan, w.Seq, w.Faults)
	if len(det) != len(w.Faults) {
		t.Fatalf("got %d detections for %d faults", len(det), len(w.Faults))
	}
	n := 0
	for _, d := range det {
		if d >= 0 {
			n++
		}
	}
	if n == 0 {
		t.Error("reference simulator detected nothing on a 59-vector s27 workload")
	}
	if msg := checkReference(w); msg != "" {
		t.Errorf("reference disagrees with oracle: %s", msg)
	}
}

// TestLiftedFaults: every stem and gate-input branch fault of the
// original circuit lifts onto the C_scan site of the same name, a
// lifted branch sits on a pin that reads the lifted signal, and D-pin
// faults do not lift.
func TestLiftedFaults(t *testing.T) {
	for _, name := range []string{"s27", "s298"} {
		c, err := circuits.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := scan.Insert(c)
		if err != nil {
			t.Fatal(err)
		}
		want, branches := 0, 0
		for _, f := range fault.Universe(c, false) {
			if f.Site.FF < 0 {
				want++
			}
		}
		orig, lifted := LiftedFaults(d)
		if len(orig) != want || len(lifted) != want {
			t.Fatalf("%s: lifted %d/%d faults, want %d", name, len(orig), len(lifted), want)
		}
		for i, f := range orig {
			lf := lifted[i]
			if f.Name(c) != lf.Name(d.Scan) || f.SA != lf.SA {
				t.Errorf("%s: %s lifted to %s", name, f.Name(c), lf.Name(d.Scan))
			}
			if !f.Site.IsStem() {
				branches++
				if d.Scan.Gates[lf.Site.Gate].In[lf.Site.Pin] != lf.Site.Signal {
					t.Errorf("%s: %s lifted onto a pin reading another signal", name, f.Name(c))
				}
			}
		}
		if branches == 0 {
			t.Errorf("%s: no branch faults lifted", name)
		}
	}
}
