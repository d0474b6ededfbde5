package xcheck

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/translate"
)

// Violation is one invariant failure, possibly minimized by Shrink.
type Violation struct {
	Invariant string
	Workload  *Workload
	Detail    string
	// ShrinkChecks counts invariant re-evaluations the shrinker spent.
	ShrinkChecks int
}

// clone returns a workload copy whose slices can be mutated without
// touching the original. The Design pointer is shared (it is immutable).
func (w *Workload) clone() *Workload {
	c := *w
	c.Seq = w.Seq.Clone()
	c.Faults = append([]fault.Fault(nil), w.Faults...)
	c.Subset = append([]int(nil), w.Subset...)
	c.RefSample = append([]int(nil), w.RefSample...)
	c.Tests = append([]translate.ScanTest(nil), w.Tests...)
	c.ScanTest.T = append(logic.Sequence(nil), w.ScanTest.T...)
	c.ScanFaults = append([]fault.Fault(nil), w.ScanFaults...)
	c.ScanSkip = append([]int(nil), w.ScanSkip...)
	return &c
}

// dropVectors removes sequence positions [lo, hi).
func (w *Workload) dropVectors(lo, hi int) *Workload {
	c := w.clone()
	c.Seq = append(c.Seq[:lo], c.Seq[hi:]...)
	return c
}

// dropFaults removes fault indices [lo, hi) and remaps the subset and
// reference-sample index lists onto the surviving faults.
func (w *Workload) dropFaults(lo, hi int) *Workload {
	c := w.clone()
	c.Faults = append(c.Faults[:lo], c.Faults[hi:]...)
	remap := func(idx []int) []int {
		out := idx[:0]
		for _, fi := range idx {
			switch {
			case fi < lo:
				out = append(out, fi)
			case fi >= hi:
				out = append(out, fi-(hi-lo))
			}
		}
		return out
	}
	c.Subset = remap(c.Subset)
	c.RefSample = remap(c.RefSample)
	return c
}

// dropTests removes conventional tests [lo, hi).
func (w *Workload) dropTests(lo, hi int) *Workload {
	c := w.clone()
	c.Tests = append(c.Tests[:lo], c.Tests[hi:]...)
	return c
}

// dropScanVectors removes scan-test vectors [lo, hi).
func (w *Workload) dropScanVectors(lo, hi int) *Workload {
	c := w.clone()
	c.ScanTest.T = append(c.ScanTest.T[:lo], c.ScanTest.T[hi:]...)
	return c
}

// dropScanFaults removes scan-test faults [lo, hi) with their skip
// entries.
func (w *Workload) dropScanFaults(lo, hi int) *Workload {
	c := w.clone()
	c.ScanFaults = append(c.ScanFaults[:lo], c.ScanFaults[hi:]...)
	c.ScanSkip = append(c.ScanSkip[:lo], c.ScanSkip[hi:]...)
	return c
}

// dimension is one shrinkable axis of a workload.
type dimension struct {
	name string
	size func(*Workload) int
	drop func(*Workload, int, int) *Workload
}

func dimensions() []dimension {
	return []dimension{
		{"vectors", func(w *Workload) int { return len(w.Seq) }, (*Workload).dropVectors},
		{"faults", func(w *Workload) int { return len(w.Faults) }, (*Workload).dropFaults},
		{"tests", func(w *Workload) int { return len(w.Tests) }, (*Workload).dropTests},
		{"scan-vectors", func(w *Workload) int { return len(w.ScanTest.T) }, (*Workload).dropScanVectors},
		{"scan-faults", func(w *Workload) int { return len(w.ScanFaults) }, (*Workload).dropScanFaults},
	}
}

// Shrink greedily minimizes a failing workload: for every dimension it
// repeatedly removes the largest chunk (halving the window down to
// single elements, scanning from the back) whose removal keeps the
// invariant failing — a ddmin-style reduction. detail must be the
// failure inv.Check reported on w. maxChecks bounds the re-evaluation
// budget (<= 0 means the default of 400).
func Shrink(inv Invariant, w *Workload, detail string, maxChecks int) *Violation {
	if maxChecks <= 0 {
		maxChecks = 400
	}
	v := &Violation{Invariant: inv.Name, Workload: w, Detail: detail}
	for _, dim := range dimensions() {
		for chunk := dim.size(v.Workload) / 2; chunk >= 1; chunk /= 2 {
			removed := true
			for removed {
				removed = false
				for hi := dim.size(v.Workload); hi-chunk >= 0 && v.ShrinkChecks < maxChecks; hi -= chunk {
					cand := dim.drop(v.Workload, hi-chunk, hi)
					v.ShrinkChecks++
					if msg := inv.Check(cand); msg != "" {
						v.Workload, v.Detail = cand, msg
						removed = true
					}
				}
			}
			if v.ShrinkChecks >= maxChecks {
				break
			}
		}
	}
	return v
}

// Repro renders the violation as a deterministic, self-contained
// reproduction report: everything needed to rebuild the workload by
// hand or regenerate it from (circuit, seed).
func (v *Violation) Repro() string {
	w := v.Workload
	var sb strings.Builder
	fmt.Fprintf(&sb, "xcheck violation: %s\n", v.Invariant)
	fmt.Fprintf(&sb, "circuit: %s seed: %d\n", w.Circuit, w.Seed)
	fmt.Fprintf(&sb, "detail: %s\n", v.Detail)
	fmt.Fprintf(&sb, "faults (%d):\n", len(w.Faults))
	for _, f := range w.Faults {
		fmt.Fprintf(&sb, "  %s\n", f.Name(w.Design.Scan))
	}
	if len(w.Subset) > 0 {
		fmt.Fprintf(&sb, "subset: %v\n", w.Subset)
	}
	if len(w.Tests) > 0 {
		fmt.Fprintf(&sb, "tests (%d):\n", len(w.Tests))
		for _, t := range w.Tests {
			fmt.Fprintf(&sb, "  SI=%s T=%s\n", t.SI.String(), strings.ReplaceAll(t.T.String(), "\n", ","))
		}
	}
	if len(w.ScanFaults) > 0 {
		t := w.ScanTest
		fmt.Fprintf(&sb, "scan test: SI=%s T=%s\n", t.SI.String(), strings.ReplaceAll(t.T.String(), "\n", ","))
		fmt.Fprintf(&sb, "scan faults (%d), skip:\n", len(w.ScanFaults))
		for i, f := range w.ScanFaults {
			fmt.Fprintf(&sb, "  %s %d\n", f.Name(w.Design.Orig), w.ScanSkip[i])
		}
	}
	fmt.Fprintf(&sb, "sequence (%d vectors):\n", len(w.Seq))
	for _, vec := range w.Seq {
		fmt.Fprintf(&sb, "  %s\n", vec.String())
	}
	return sb.String()
}

// ParseReproSequence reads the "sequence" block of a Repro back into a
// Sequence, for committing minimized reproductions as test fixtures.
func ParseReproSequence(repro string) (logic.Sequence, error) {
	i := strings.Index(repro, "sequence (")
	if i < 0 {
		return nil, fmt.Errorf("xcheck: no sequence block in repro")
	}
	body := repro[i:]
	if j := strings.Index(body, "\n"); j >= 0 {
		body = body[j+1:]
	}
	return logic.ParseSequence(body)
}
