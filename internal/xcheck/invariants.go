package xcheck

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/compact"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/runctl"
	"repro/internal/sim"
	"repro/internal/translate"
)

// Invariant is one reusable correctness predicate over a workload.
// Check returns "" when the invariant holds and a failure description
// otherwise; it must be deterministic in the workload (re-running the
// same workload reproduces the same verdict), because the shrinker
// re-evaluates it on mutated copies.
type Invariant struct {
	Name  string
	Check func(w *Workload) string
}

// Invariants returns every cross-check in canonical order.
func Invariants() []Invariant {
	return []Invariant{
		{"diff/run", checkDiffRun},
		{"diff/subset", checkDiffSubset},
		{"diff/reference", checkReference},
		{"sim/trace-reuse", checkTraceReuse},
		{"sim/scan-test", checkScanTest},
		{"compact/keeps-detections", checkCompactKeepsDetections},
		{"compact/workers", checkCompactWorkers},
		{"compact/pipeline-length", checkPipelineLength},
		{"resume/identical", checkResumeIdentical},
		{"seq/padding-monotone", checkPaddingMonotone},
		{"translate/guarantee", checkTranslateGuarantee},
		{"store/failure-survival", checkStoreSurvival},
		{"jobs/partition-merge", checkPartitionMerge},
		{"jobs/worker-claim", checkWorkerClaim},
	}
}

// workerCounts is the worker fan-out matrix of the differential checks:
// serial, a fixed small pool, and whatever the host offers.
func workerCounts() []int {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	out := counts[:0]
	for _, n := range counts {
		dup := false
		for _, m := range out {
			dup = dup || m == n
		}
		if !dup {
			out = append(out, n)
		}
	}
	return out
}

// oracleRun is the baseline every engine variant is compared against:
// the full-sweep kernel on a single worker.
func oracleRun(w *Workload, subset []int) []int {
	opts := sim.Options{Kernel: sim.KernelFull}
	if subset == nil {
		return sim.Run(w.Design.Scan, w.Seq, w.Faults, opts).DetectedAt
	}
	return sim.RunSubset(w.Design.Scan, w.Seq, w.Faults, subset, opts).DetectedAt
}

// diffDetAt reports the first disagreement between two DetectedAt
// slices, naming the fault via idx (identity mapping when nil).
func (w *Workload) diffDetAt(label string, want, got []int, idx []int) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%s: result length %d, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			fi := i
			if idx != nil {
				fi = idx[i]
			}
			return fmt.Sprintf("%s: fault %d (%s): detected at %d, oracle %d",
				label, fi, w.Faults[fi].Name(w.Design.Scan), got[i], want[i])
		}
	}
	return ""
}

// checkDiffRun: the event kernel and the full-sweep kernel, through the
// pooled Simulator at every worker count, all agree with the
// single-worker full sweep on every fault's first detection time.
func checkDiffRun(w *Workload) string {
	want := oracleRun(w, nil)
	for _, kernel := range []sim.Kernel{sim.KernelEvent, sim.KernelFull} {
		for _, workers := range workerCounts() {
			s := sim.NewSimulator(w.Design.Scan, workers)
			// Two passes through one Simulator also exercise the pooled
			// machines and the cached fault-free trace.
			for pass := 0; pass < 2; pass++ {
				got := s.Run(w.Seq, w.Faults, sim.Options{Kernel: kernel}).DetectedAt
				label := fmt.Sprintf("kernel=%d workers=%d pass=%d", kernel, workers, pass)
				if msg := w.diffDetAt(label, want, got, nil); msg != "" {
					return msg
				}
			}
		}
	}
	return ""
}

// checkDiffSubset: RunSubset agrees with the oracle restricted to the
// workload's fault subset, for both kernels at every worker count.
func checkDiffSubset(w *Workload) string {
	if len(w.Subset) == 0 {
		return ""
	}
	want := oracleRun(w, w.Subset)
	for _, kernel := range []sim.Kernel{sim.KernelEvent, sim.KernelFull} {
		for _, workers := range workerCounts() {
			s := sim.NewSimulator(w.Design.Scan, workers)
			got := s.RunSubset(w.Seq, w.Faults, w.Subset, sim.Options{Kernel: kernel}, nil, nil).DetectedAt
			label := fmt.Sprintf("subset kernel=%d workers=%d", kernel, workers)
			if msg := w.diffDetAt(label, want, got, w.Subset); msg != "" {
				return msg
			}
		}
	}
	return ""
}

// checkReference: the deliberately naive scalar reference simulator
// agrees with the production oracle on a deterministic fault sample.
func checkReference(w *Workload) string {
	if len(w.RefSample) == 0 {
		return ""
	}
	want := oracleRun(w, w.RefSample)
	got := make([]int, len(w.RefSample))
	for i, fi := range w.RefSample {
		got[i] = RefDetect(w.Design.Scan, w.Seq, w.Faults[fi])
	}
	return w.diffDetAt("reference", want, got, w.RefSample)
}

// checkScanTest: the conventional scan-test grader returns exactly the
// faults the scalar reference detects (RefScanTest), with and without
// the skip list, at every worker count.
func checkScanTest(w *Workload) string {
	c, t := w.Design.Orig, w.ScanTest
	ref := make([]bool, len(w.ScanFaults))
	for i, f := range w.ScanFaults {
		ref[i] = RefScanTest(c, t.SI, t.T, f)
	}
	for _, skip := range [][]int{nil, w.ScanSkip} {
		var want []int
		for i, d := range ref {
			if d && (skip == nil || skip[i] < 0) {
				want = append(want, i)
			}
		}
		for _, workers := range workerCounts() {
			got := sim.NewSimulator(c, workers).RunScanTest(t.SI, t.T, w.ScanFaults, skip)
			if !slices.Equal(got, want) {
				return fmt.Sprintf("scan-test workers=%d skip=%t: detected %v, reference %v",
					workers, skip != nil, got, want)
			}
		}
	}
	return ""
}

// detSet returns the detected-fault mask of seq over the workload's
// fault list.
func (w *Workload) detSet(seq logic.Sequence) []bool {
	det := sim.Run(w.Design.Scan, seq, w.Faults, sim.Options{}).DetectedAt
	out := make([]bool, len(det))
	for i, t := range det {
		out[i] = t != sim.NotDetected
	}
	return out
}

// lostDetection names the first fault detected by the input mask but
// not the output mask, or "".
func (w *Workload) lostDetection(label string, in, out []bool) string {
	for fi := range in {
		if in[fi] && !out[fi] {
			return fmt.Sprintf("%s: fault %d (%s) detected by input but not output",
				label, fi, w.Faults[fi].Name(w.Design.Scan))
		}
	}
	return ""
}

// checkCompactKeepsDetections: neither vector restoration nor vector
// omission ever loses a detection (the paper's compaction procedures
// only discard vectors whose removal keeps every target detected).
func checkCompactKeepsDetections(w *Workload) string {
	before := w.detSet(w.Seq)
	restored, _ := compact.Restore(w.Design.Scan, w.Seq, w.Faults)
	if msg := w.lostDetection("restore", before, w.detSet(restored)); msg != "" {
		return msg
	}
	omitted, _ := compact.Omit(w.Design.Scan, w.Seq, w.Faults)
	if msg := w.lostDetection("omit", before, w.detSet(omitted)); msg != "" {
		return msg
	}
	return ""
}

// seqEqual compares two sequences vector by vector.
func seqEqual(a, b logic.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// semantics extracts the Stats fields that do not depend on how the
// work was split. Simulations and BatchSteps are excluded: they account
// for the work performed, which chunked omission divides differently.
func semantics(st compact.Stats) [4]int {
	return [4]int{st.BeforeLen, st.AfterLen, st.TargetFaults, st.ExtraDetected}
}

// checkCompactWorkers: restoration and omission produce bit-identical
// sequences and identical Stats, work accounting included, at every
// worker count and in both restoration orders, with the one-worker run
// as the reference; and a run interrupted at an arbitrary poll
// boundary resumes to the one-worker detection-order output.
func checkCompactWorkers(w *Workload) string {
	type result struct {
		seq logic.Sequence
		st  compact.Stats
	}
	run := func(opts compact.Options) (result, result) {
		r, rst := compact.RestoreOpts(w.Design.Scan, w.Seq, w.Faults, opts)
		o, ost := compact.OmitOpts(w.Design.Scan, w.Seq, w.Faults, opts)
		return result{r, rst}, result{o, ost}
	}
	var detR, detO result
	for _, order := range []compact.Order{compact.OrderDetection, compact.OrderADI} {
		refR, refO := run(compact.Options{Workers: 1, Order: order})
		if order == compact.OrderDetection {
			detR, detO = refR, refO
		}
		for _, workers := range workerCounts() {
			if workers == 1 {
				continue
			}
			gotR, gotO := run(compact.Options{Workers: workers, Order: order})
			for _, c := range []struct {
				pass     string
				ref, got result
			}{{"restore", refR, gotR}, {"omit", refO, gotO}} {
				label := fmt.Sprintf("workers/%s order=%s workers=%d", c.pass, order, workers)
				if !seqEqual(c.ref.seq, c.got.seq) {
					return fmt.Sprintf("%s: output (%d vectors) differs from one worker's (%d vectors)",
						label, len(c.got.seq), len(c.ref.seq))
				}
				if c.ref.st != c.got.st {
					return fmt.Sprintf("%s: stats %+v differ from one worker's %+v", label, c.got.st, c.ref.st)
				}
			}
		}
	}

	// Interrupt each pass at a random poll boundary and resume; the
	// final output must still match the uninterrupted one-worker run.
	rng := w.rng(9)
	polls := int64(1 + rng.Intn(60))
	for _, c := range []struct {
		pass string
		want logic.Sequence
		run  func(ctl *runctl.Control) (logic.Sequence, compact.Stats)
	}{
		{"restore", detR.seq, func(ctl *runctl.Control) (logic.Sequence, compact.Stats) {
			return compact.RestoreOpts(w.Design.Scan, w.Seq, w.Faults, compact.Options{Workers: 1, Control: ctl})
		}},
		{"omit", detO.seq, func(ctl *runctl.Control) (logic.Sequence, compact.Stats) {
			return compact.OmitOpts(w.Design.Scan, w.Seq, w.Faults, compact.Options{Workers: 1, Control: ctl})
		}},
	} {
		store := runctl.NewMemStore()
		_, st := c.run(resumeControl(store, polls))
		if st.Status == runctl.Complete {
			continue // finished before the injected stop; nothing to resume
		}
		if st.Status != runctl.Canceled {
			return fmt.Sprintf("workers/resume/%s: interrupted leg status %v, want canceled", c.pass, st.Status)
		}
		got, st := c.run(&runctl.Control{Store: store, Resume: true})
		if st.Status != runctl.Resumed {
			return fmt.Sprintf("workers/resume/%s: resumed leg status %v", c.pass, st.Status)
		}
		if !seqEqual(c.want, got) {
			return fmt.Sprintf("workers/resume/%s: resumed output (%d vectors) differs from the uninterrupted run (%d vectors) after stop at poll %d",
				c.pass, len(got), len(c.want), polls)
		}
	}
	return ""
}

// checkPipelineLength: the restore→omit pipeline never grows the
// sequence at either stage, and its final output keeps every detection.
func checkPipelineLength(w *Workload) string {
	restored, omitted, _, _ := compact.RestoreThenOmit(w.Design.Scan, w.Seq, w.Faults)
	if len(restored) > len(w.Seq) {
		return fmt.Sprintf("pipeline: restored %d vectors from %d input", len(restored), len(w.Seq))
	}
	if len(omitted) > len(restored) {
		return fmt.Sprintf("pipeline: omitted %d vectors from %d restored", len(omitted), len(restored))
	}
	return w.lostDetection("pipeline", w.detSet(w.Seq), w.detSet(omitted))
}

// interrupted runs an engine leg with a poll-injected stop after p
// polls, then (if it stopped) a resume leg, and reports whether the
// interrupt landed. Engines run single-worker so the poll sequence is
// deterministic.
func resumeControl(store runctl.Store, polls int64) *runctl.Control {
	return &runctl.Control{Budget: runctl.Budget{StopAfterPolls: polls}, Store: store}
}

// checkResumeIdentical: interrupting restoration, omission or fault
// simulation at an arbitrary poll boundary and resuming from the
// checkpoint yields output bit-identical to the uninterrupted run.
func checkResumeIdentical(w *Workload) string {
	rng := w.rng(6)
	polls := int64(1 + rng.Intn(60))

	type pass struct {
		name string
		run  func(ctl *runctl.Control) (logic.Sequence, runctl.Status)
	}
	passes := []pass{
		{"restore", func(ctl *runctl.Control) (logic.Sequence, runctl.Status) {
			out, st := compact.RestoreOpts(w.Design.Scan, w.Seq, w.Faults, compact.Options{Workers: 1, Control: ctl})
			return out, st.Status
		}},
		{"omit", func(ctl *runctl.Control) (logic.Sequence, runctl.Status) {
			out, st := compact.OmitOpts(w.Design.Scan, w.Seq, w.Faults, compact.Options{Workers: 1, Control: ctl})
			return out, st.Status
		}},
	}
	for _, p := range passes {
		want, st := p.run(nil)
		if st != runctl.Complete {
			return fmt.Sprintf("resume/%s: uninterrupted run status %v", p.name, st)
		}
		store := runctl.NewMemStore()
		_, st = p.run(resumeControl(store, polls))
		if st == runctl.Complete {
			continue // finished before the injected stop; nothing to resume
		}
		if st != runctl.Canceled {
			return fmt.Sprintf("resume/%s: interrupted leg status %v, want canceled", p.name, st)
		}
		got, st := p.run(&runctl.Control{Store: store, Resume: true})
		if st != runctl.Resumed {
			return fmt.Sprintf("resume/%s: resumed leg status %v", p.name, st)
		}
		if !seqEqual(want, got) {
			return fmt.Sprintf("resume/%s: resumed output (%d vectors) differs from uninterrupted (%d vectors) after stop at poll %d",
				p.name, len(got), len(want), polls)
		}
	}

	// Fault simulation: same drill on DetectedAt.
	want := sim.Run(w.Design.Scan, w.Seq, w.Faults, sim.Options{}).DetectedAt
	store := runctl.NewMemStore()
	res := sim.Run(w.Design.Scan, w.Seq, w.Faults, sim.Options{Control: resumeControl(store, polls)})
	if res.Status.Stopped() {
		if res.Status != runctl.Canceled {
			return fmt.Sprintf("resume/sim: interrupted leg status %v, want canceled", res.Status)
		}
		res = sim.Run(w.Design.Scan, w.Seq, w.Faults, sim.Options{Control: &runctl.Control{Store: store, Resume: true}})
		if res.Status != runctl.Resumed {
			return fmt.Sprintf("resume/sim: resumed leg status %v", res.Status)
		}
	}
	return w.diffDetAt(fmt.Sprintf("resume/sim polls=%d", polls), want, res.DetectedAt, nil)
}

// checkPaddingMonotone: appending scan_sel = 1 padding vectors to the
// end of a sequence never reduces coverage, and never changes the
// detection time of an already-detected fault (the prefix is
// untouched).
func checkPaddingMonotone(w *Workload) string {
	rng := w.rng(7)
	padded := w.Seq.Clone()
	for n := 1 + rng.Intn(8); n > 0; n-- {
		v := w.Design.ShiftVector(rng.Next())
		padded = append(padded, v)
	}
	padded.FillX(rng)
	base := sim.Run(w.Design.Scan, w.Seq, w.Faults, sim.Options{}).DetectedAt
	more := sim.Run(w.Design.Scan, padded, w.Faults, sim.Options{}).DetectedAt
	for fi := range base {
		switch {
		case base[fi] != sim.NotDetected && more[fi] != base[fi]:
			return fmt.Sprintf("padding: fault %d (%s) moved from detection at %d to %d",
				fi, w.Faults[fi].Name(w.Design.Scan), base[fi], more[fi])
		case base[fi] == sim.NotDetected && more[fi] != sim.NotDetected && more[fi] < len(w.Seq):
			return fmt.Sprintf("padding: fault %d (%s) newly detected at %d, inside the unchanged prefix of %d",
				fi, w.Faults[fi].Name(w.Design.Scan), more[fi], len(w.Seq))
		}
	}
	return ""
}

// checkTranslateGuarantee: the translated flat sequence detects every
// liftable stem or gate-input branch fault that the idealized
// conventional application of the same tests detects (the paper's
// Section 3 guarantee).
func checkTranslateGuarantee(w *Workload) string {
	if len(w.Tests) == 0 {
		return ""
	}
	seq, err := translate.Translate(w.Design, w.Tests, w.Seed)
	if err != nil {
		return fmt.Sprintf("translate: %v", err)
	}
	orig, lifted := LiftedFaults(w.Design)
	// Check a sample at the workload's fault budget; both the per-fault
	// scalar conventional model and the translated-sequence simulation
	// run only over the sampled faults.
	sample := sampleIndices(len(orig), len(w.Faults), w.rng(8))
	origS := make([]fault.Fault, len(sample))
	liftedS := make([]fault.Fault, len(sample))
	for i, fi := range sample {
		origS[i] = orig[fi]
		liftedS[i] = lifted[fi]
	}
	det := sim.Run(w.Design.Scan, seq, liftedS, sim.Options{}).DetectedAt
	for i := range sample {
		if ConventionalDetect(w.Design.Orig, w.Tests, origS[i]) && det[i] == sim.NotDetected {
			return fmt.Sprintf("translate: fault %s detected conventionally but missed by the translated sequence",
				liftedS[i].Name(w.Design.Scan))
		}
	}
	return ""
}
