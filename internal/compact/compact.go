// Package compact implements the two static test compaction procedures
// for non-scan synchronous sequential circuits the paper applies to
// C_scan sequences (Section 4):
//
//   - vector restoration (Pomeranz & Reddy, ICCD-97 [23]): starting
//     from an empty selection, faults are processed in decreasing order
//     of detection time and vectors are restored backward from each
//     fault's detection time until the fault is detected again;
//   - vector omission (Pomeranz & Reddy, DAC-96 [22]): vectors are
//     tentatively removed one at a time; a removal is kept when every
//     fault detected before compaction is still detected.
//
// Because scan operations are explicit vectors in this representation,
// both procedures freely shorten complete scan operations into limited
// ones — the flexibility the paper's approach is built on.
//
// Both passes run their fault simulations through one shared
// sim.Simulator (see Options), so trial runs draw machines from a pool
// instead of allocating, and multi-batch runs fan out across workers.
// Worker count never changes the compacted output — only wall-clock.
package compact

import (
	"fmt"
	"sort"

	"repro/internal/adi"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sim"
)

// Engine selects nothing: restoration has one engine. It remains only
// because perfbench/flows.go sets Options.Engine from
// core.Config.Engine, and perfbench changes only with the benchmark;
// the next benchmark change deletes Engine, Options.Engine and
// core.Config.Engine together.
type Engine struct{}

// Order selects the restoration target order. The order changes which
// vectors restoration keeps, so it legitimately changes the compacted
// output; a golden test pins each order's result.
type Order uint8

const (
	// OrderDetection processes faults by decreasing detection time —
	// the paper's own order (reference [23]).
	OrderDetection Order = iota
	// OrderADI processes faults by increasing accidental-detection
	// index (see internal/adi): faults that are rarely detected by
	// accident go first, so the vectors restored for them cover many
	// easy faults before those are ever examined. Ties fall back to
	// decreasing detection time.
	OrderADI
)

// String names the order for checkpoints and diagnostics.
func (o Order) String() string {
	if o == OrderADI {
		return "adi"
	}
	return "detection"
}

// Options tunes a compaction pass. The zero value selects a private
// simulator with runtime.GOMAXPROCS workers.
type Options struct {
	// Workers is the fault-simulation worker count (0 = GOMAXPROCS).
	// Results are identical for every value; only wall-clock changes.
	Workers int
	// Sim, when non-nil, supplies the simulator (and its machine pool);
	// its circuit must match the pass's circuit. Workers is then
	// ignored. Sharing one Simulator across restoration, omission and
	// any surrounding flow amortizes machine allocation.
	Sim *sim.Simulator
	// Control, when non-nil, threads budget/cancellation and optional
	// checkpointing through the pass. Restoration charges one budget
	// trial per restoration-order position ("restore" checkpoint
	// section). Omission charges one trial per removal window but polls
	// cancellation at every removal trial; it checkpoints only at
	// window boundaries ("omit" section), so a cancellation or deadline
	// stop inside a window resumes from the window start and redoes it
	// deterministically. A stopped pass returns the valid partial
	// sequence with Stats.Status set; a resumed pass finishes
	// bit-identical to an uninterrupted one. The Control is never
	// forwarded to inner fault-simulation runs.
	Control *runctl.Control
	// Obs, when non-nil, receives the pass's instrumentation under the
	// "restore" or "omit" phase: per-position and per-window events,
	// trial/step counters and the pass timer (docs/ALGORITHMS.md §11).
	// Purely observational — the compacted output is identical with or
	// without it. A private simulator built by the pass is observed
	// too; a caller-supplied Sim keeps whatever observer it already has.
	Obs obs.Observer
	// Engine selects nothing (see Engine); it remains only because
	// perfbench/flows.go sets it, and the next benchmark change
	// deletes it.
	Engine Engine
	// Order selects the restoration target order (see Order). Unlike
	// every other option, a non-default order changes the output.
	Order Order
}

func (o Options) simulator(c *netlist.Circuit) *sim.Simulator {
	if o.Sim != nil {
		return o.Sim
	}
	return sim.NewSimulator(c, o.Workers)
}

// Stats reports what one compaction pass did.
type Stats struct {
	// BeforeLen and AfterLen are sequence lengths in vectors (equal to
	// clock cycles for this representation).
	BeforeLen, AfterLen int
	// TargetFaults is how many faults the pass had to preserve.
	TargetFaults int
	// ExtraDetected counts faults not detected by the input sequence
	// that the compacted sequence happens to detect (the paper's "ext
	// det" column).
	ExtraDetected int
	// Simulations counts fault-simulation passes (whole sim.Run-shaped
	// calls), regardless of how many faults or vectors each simulated.
	Simulations int
	// BatchSteps counts the actual simulation work in uniform units:
	// one unit is one 64-fault batch advanced by one vector. Unlike
	// Simulations it is comparable across passes whose runs differ in
	// fault count, sequence length or early exit.
	BatchSteps int64
	// Status classifies the pass: Complete/Resumed mark a full
	// compaction, any Stopped() status marks a valid but only partially
	// compacted result that a checkpoint can continue.
	Status runctl.Status
	// Err carries the checkpoint load/save failure when Status is
	// Failed; it is nil otherwise.
	Err error
}

// Restore runs vector-restoration compaction of seq for circuit c,
// preserving detection of every fault in faults that seq detects.
func Restore(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault) (logic.Sequence, Stats) {
	return RestoreOpts(c, seq, faults, Options{})
}

// RestoreOpts is Restore with explicit Options. The compacted output is
// identical for every Options value except Order.
func RestoreOpts(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault, opts Options) (logic.Sequence, Stats) {
	s := opts.simulator(c)
	ob := opts.Obs
	if opts.Sim == nil {
		s.Observe(ob)
	}
	defer obs.T(ob, "restore.time").Start()()
	cTrials := obs.C(ob, "restore.trials")
	cCovered := obs.C(ob, "restore.window_covered")
	cRestored := obs.C(ob, "restore.restored_vectors")
	st := Stats{BeforeLen: len(seq)}
	defer func() {
		obs.C(ob, "restore.simulations").Add(int64(st.Simulations))
		obs.C(ob, "restore.batch_steps").Add(st.BatchSteps)
	}()
	base := s.Run(seq, faults, sim.Options{})
	st.Simulations++
	st.BatchSteps += base.BatchSteps
	undetected := undetectedIndices(base.DetectedAt)
	var scores []int
	if opts.Order == OrderADI {
		var adiSteps int64
		scores, adiSteps = adi.Scores(s, seq, faults)
		st.Simulations++
		st.BatchSteps += adiSteps
	}
	order := restorationOrder(base.DetectedAt, opts.Order, scores)
	st.TargetFaults = len(order)

	kept := make([]bool, len(seq))
	scratch := make(logic.Sequence, 0, len(seq))
	build := func() logic.Sequence {
		scratch = scratch[:0]
		for i, k := range kept {
			if k {
				scratch = append(scratch, seq[i])
			}
		}
		return scratch
	}
	detects := func(fi int) bool {
		st.Simulations++
		r := s.Run(build(), faults[fi:fi+1], sim.Options{})
		st.BatchSteps += r.BatchSteps
		return r.Detected(0)
	}
	// covered[fi] means the currently restored subsequence already
	// detects fault fi; refreshed restoreLookahead targets at a time so
	// the common "this fault needs no work" case costs a fraction of a
	// simulation. Faults already covered are dropped from later checks
	// — they could only re-confirm a flag that never goes back to false.
	covered := make([]bool, len(faults))
	ctl := opts.Control
	startPos := 0
	resumed := false
	if ctl.Resuming() {
		ck, ok, err := loadRestoreCheckpoint(ctl, len(seq), len(faults), opts.Order)
		if err == nil && ok && ck.Pos > len(order) {
			err = errRestorePos(ck.Pos, len(order))
		}
		if err == nil && ok {
			if err = unpackMask(ck.Kept, kept); err == nil {
				err = unpackMask(ck.Covered, covered)
			}
		}
		switch {
		case err == nil:
			if ok {
				resumed = true
				startPos = ck.Pos
				if ck.Done {
					startPos = len(order)
				}
			}
		case corruptCheckpointError(err):
			// The stored state is damaged, not from a different run:
			// redo the pass from the start, which produces the output
			// the undamaged run would have.
			obs.C(ob, "restore.ckpt_degraded").Inc()
			obs.Emit(ob, "restore", "checkpoint_degraded", obs.F("error", err.Error()))
			for i := range kept {
				kept[i] = false
			}
			for i := range covered {
				covered[i] = false
			}
		default:
			ctl.Fail()
			st.Status, st.Err = runctl.Failed, err
			return nil, st
		}
	}
	st.Status = runctl.Final(resumed)
	obs.Emit(ob, "restore", "start",
		obs.F("vectors", len(seq)), obs.F("faults", len(faults)),
		obs.F("targets", st.TargetFaults))
	if resumed {
		obs.Emit(ob, "restore", "resume", obs.F("pos", startPos))
	}
	// checkedAt tracks, per fault, the trial version (the number of
	// restoration commits so far) at which the fault was last verified
	// undetected. A fault whose verification is still current needs no
	// new simulation at processing time: the restored subsequence has
	// not changed since a lookahead refresh checked it, so the verdict
	// "uncovered — restore vectors" is already known. Because covered
	// flags are monotone (restoration only adds vectors), skipping the
	// re-check cannot change any decision a fresh check would make.
	checkedAt := make([]int, len(faults))
	ver := 1
	group := make([]int, 0, restoreLookahead)
	fbuf := make([]fault.Fault, 0, restoreLookahead)
	detBuf := make([]int, 0, restoreLookahead)
	for pos := startPos; pos < len(order); pos++ {
		if stop, halted := ctl.Trial(); halted {
			st.Status = stop
			st.Err = saveRestoreCheckpoint(ctl, len(seq), len(faults), opts.Order, pos, kept, covered, false, true)
			break
		}
		fi := order[pos]
		cTrials.Inc()
		if !covered[fi] && checkedAt[fi] != ver {
			// Refresh coverage for the next restoreLookahead
			// still-uncovered targets in one multi-batch run; the
			// batches fan out across the simulator's workers.
			group = group[:0]
			for _, gi := range order[pos:] {
				if covered[gi] {
					continue
				}
				group = append(group, gi)
				if len(group) == restoreLookahead {
					break
				}
			}
			st.Simulations++
			r := s.RunSubset(build(), faults, group, sim.Options{}, fbuf, detBuf)
			st.BatchSteps += r.BatchSteps
			for i, gi := range group {
				if r.Detected(i) {
					covered[gi] = true
					cCovered.Inc()
				} else {
					checkedAt[gi] = ver
				}
			}
		}
		if covered[fi] {
			obs.Emit(ob, "restore", "fault",
				obs.F("pos", pos), obs.F("fault", fi),
				obs.F("covered", true), obs.F("restored", 0))
			continue
		}
		// For long sequences vectors are restored in small blocks
		// before re-checking detection; omission cleans up any excess
		// afterwards. Block size 1 reproduces plain [23].
		block := 1 + len(seq)/1500
		restoredHere := 0
		for t := base.DetectedAt[fi]; t >= 0; {
			added := 0
			for ; t >= 0 && added < block; t-- {
				if !kept[t] {
					kept[t] = true
					added++
				}
			}
			if added == 0 {
				break
			}
			restoredHere += added
			ver++
			if detects(fi) {
				break
			}
		}
		cRestored.Add(int64(restoredHere))
		obs.Emit(ob, "restore", "fault",
			obs.F("pos", pos), obs.F("fault", fi),
			obs.F("covered", false), obs.F("restored", restoredHere))
		st.Err = saveRestoreCheckpoint(ctl, len(seq), len(faults), opts.Order, pos+1, kept, covered, false, false)
	}
	if st.Status.Done() {
		st.Err = saveRestoreCheckpoint(ctl, len(seq), len(faults), opts.Order, len(order), kept, covered, true, true)
	}
	out := append(logic.Sequence(nil), build()...)
	st.AfterLen = len(out)
	if st.Status.Done() {
		st.ExtraDetected = countExtra(s, out, faults, undetected, &st)
	}
	if st.Err != nil && st.Status != runctl.Failed {
		ctl.Fail()
		st.Status = runctl.Failed
	}
	obs.Emit(ob, "restore", "done",
		obs.F("before", st.BeforeLen), obs.F("after", st.AfterLen),
		obs.F("extra", st.ExtraDetected), obs.F("status", st.Status.String()))
	return out, st
}

// errRestorePos builds the out-of-range error for a restore checkpoint
// whose position exceeds the recomputed restoration order.
func errRestorePos(pos, n int) error {
	return fmt.Errorf("%w: restore checkpoint position %d outside order of %d", errCheckpointCorrupt, pos, n)
}

// restorationOrder lists the detected faults in the order restoration
// processes them. OrderDetection sorts by decreasing detection time;
// OrderADI sorts by increasing accidental-detection score (scores must
// then be per-fault ADI counts) with detection time as the tie-break.
// The final ascending-fault-index tie-break makes the sort total, so
// the restoration order — and the output — is deterministic.
func restorationOrder(detAt []int, policy Order, scores []int) []int {
	var order []int
	for fi, t := range detAt {
		if t != sim.NotDetected {
			order = append(order, fi)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		fa, fb := order[a], order[b]
		if policy == OrderADI && scores[fa] != scores[fb] {
			return scores[fa] < scores[fb]
		}
		ta, tb := detAt[fa], detAt[fb]
		if ta != tb {
			return ta > tb
		}
		return fa < fb
	})
	return order
}

// restoreLookahead is how many still-uncovered targets ahead of the
// current position restoration's coverage refresh checks in one
// multi-batch run. The constant is deliberately independent of the
// worker count — a worker-sized lookahead would make Simulations
// depend on GOMAXPROCS — and four batches are enough to keep small
// worker pools busy without wasting checks that a later insertion
// invalidates anyway.
const restoreLookahead = 4 * sim.Slots

// omitBlock is the initial block size for omission trials. Whole blocks
// of vectors are tried first and bisected on failure (segment pruning
// in the spirit of the paper's reference [24]), which removes long
// stretches of padding in O(log) trials instead of one per vector.
const omitBlock = 16

// Omit runs vector-omission compaction of seq for circuit c, preserving
// detection of every fault in faults that seq detects. Blocks of
// vectors are tried from the end of the sequence toward the front;
// removing vectors at or after position t cannot disturb detections
// strictly before t, so each trial only re-simulates the faults
// detected at or after t.
func Omit(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault) (logic.Sequence, Stats) {
	return OmitOpts(c, seq, faults, Options{})
}

// OmitOpts is Omit with explicit Options. The compacted output is
// identical for every Options value.
func OmitOpts(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault, opts Options) (logic.Sequence, Stats) {
	s := opts.simulator(c)
	ob := opts.Obs
	if opts.Sim == nil {
		s.Observe(ob)
	}
	defer obs.T(ob, "omit.time").Start()()
	cWindows := obs.C(ob, "omit.windows")
	st := Stats{BeforeLen: len(seq)}
	defer func() {
		obs.C(ob, "omit.simulations").Add(int64(st.Simulations))
		obs.C(ob, "omit.batch_steps").Add(st.BatchSteps)
	}()
	o := newOmitter(s, seq, faults)
	defer o.close()
	o.cTrials = obs.C(ob, "omit.trials")
	o.cRemoved = obs.C(ob, "omit.removed_vectors")
	o.cReconv = obs.C(ob, "omit.reconv_cutoffs")
	o.cWinHits = obs.C(ob, "omit.window_memo_hits")
	// Snapshot the originally-undetected fault indices now: the trial
	// engine rewrites o.detAt in place as removals shift detection
	// times, so nothing derived from it may be read after this point.
	undetected := undetectedIndices(o.detAt)
	st.TargetFaults = len(faults) - len(undetected)

	ctl := opts.Control
	o.ctl = ctl
	startT := len(o.cur)
	resumed := false
	if ctl.Resuming() {
		ck, ok, err := loadOmitCheckpoint(ctl, len(seq), len(faults))
		switch {
		case err == nil:
			if ok {
				resumed = true
				o.restoreFrom(ck.Kept, ck.DetAt)
				startT = ck.NextT
				if ck.Done {
					startT = 0
				}
			}
		case corruptCheckpointError(err):
			// Damaged checkpoint: redo the whole pass (see the restore
			// path above).
			obs.C(ob, "omit.ckpt_degraded").Inc()
			obs.Emit(ob, "omit", "checkpoint_degraded", obs.F("error", err.Error()))
		default:
			ctl.Fail()
			st.Status, st.Err = runctl.Failed, err
			st.AfterLen = len(o.cur)
			return o.cur, st
		}
	}
	st.Status = runctl.Final(resumed)
	obs.Emit(ob, "omit", "start",
		obs.F("vectors", len(seq)), obs.F("faults", len(faults)),
		obs.F("targets", st.TargetFaults))
	if resumed {
		obs.Emit(ob, "omit", "resume", obs.F("next_t", startT))
	}

	// slack bounds how far past its previous detection time a fault is
	// allowed to drift during a trial. Trials are simulated only up to
	// the latest affected detection time plus this slack, which keeps
	// failing trials from re-simulating the whole tail; a removal whose
	// detections would move beyond the bound is (conservatively)
	// rejected.
	slack := 2*c.NumFFs() + 50

	// removeRange prunes within [lo, hi): try the whole range, bisect
	// on failure. Higher positions are handled first so indices below
	// stay valid. A budget stop inside a trial short-circuits the
	// bisection.
	var removeRange func(lo, hi int)
	removeRange = func(lo, hi int) {
		if o.stopStatus.Stopped() || hi <= lo || o.tryRemove(lo, hi, slack) {
			return
		}
		if hi-lo == 1 {
			return
		}
		mid := (lo + hi) / 2
		removeRange(mid, hi)
		removeRange(lo, mid)
	}
	for t := startT; t > 0; {
		lo := t - omitBlock
		if lo < 0 {
			lo = 0
		}
		// One budget trial is charged per removal window — the atomic
		// resume unit — so a budget stop always lands on a window
		// boundary and every resumed leg makes progress.
		if stop, halted := ctl.Trial(); halted {
			st.Status = stop
			st.Err = saveOmitCheckpoint(ctl, len(seq), len(faults), t, o.keptMask(len(seq)), o.detAt, false, true)
			break
		}
		// Snapshot the pre-window state: a cancellation or deadline stop
		// inside the window saves this snapshot, so the resumed run
		// redoes the whole window.
		var snapKept string
		var snapDet []int
		if ctl != nil && ctl.Store != nil {
			snapKept = o.keptMask(len(seq))
			snapDet = append([]int(nil), o.detAt...)
		}
		before := len(o.cur)
		o.beginWindow(lo)
		removeRange(lo, t)
		if o.stopStatus.Stopped() {
			st.Status = o.stopStatus
			st.Err = saveOmitCheckpoint(ctl, len(seq), len(faults), t, snapKept, snapDet, false, true)
			break
		}
		cWindows.Inc()
		obs.Emit(ob, "omit", "window",
			obs.F("lo", lo), obs.F("hi", t),
			obs.F("removed", before-len(o.cur)), obs.F("len", len(o.cur)))
		st.Err = saveOmitCheckpoint(ctl, len(seq), len(faults), lo, o.keptMask(len(seq)), o.detAt, false, false)
		t = lo
	}
	if st.Status.Done() {
		st.Err = saveOmitCheckpoint(ctl, len(seq), len(faults), 0, o.keptMask(len(seq)), o.detAt, true, true)
	}
	st.AfterLen = len(o.cur)
	st.Simulations = o.sims
	st.BatchSteps = o.steps
	if st.Status.Done() {
		st.ExtraDetected = countExtra(s, o.cur, faults, undetected, &st)
	}
	if st.Err != nil && st.Status != runctl.Failed {
		ctl.Fail()
		st.Status = runctl.Failed
	}
	obs.Emit(ob, "omit", "done",
		obs.F("before", st.BeforeLen), obs.F("after", st.AfterLen),
		obs.F("extra", st.ExtraDetected), obs.F("status", st.Status.String()))
	return o.cur, st
}

// undetectedIndices snapshots the indices of faults a base simulation
// left undetected. Both compaction passes take this snapshot before
// their trial loops run, so countExtra can never observe a detection
// array the pass has since mutated in place (the omitter rewrites its
// detAt backing array as removals shift detection times; handing that
// live slice downstream was an aliasing hazard that relied on omission
// never resetting a detected entry).
func undetectedIndices(detAt []int) []int {
	var undetected []int
	for fi, t := range detAt {
		if t == sim.NotDetected {
			undetected = append(undetected, fi)
		}
	}
	return undetected
}

// countExtra counts faults the compacted sequence detects that the
// original did not. undetected is the snapshot of originally-undetected
// fault indices taken before the pass started (see undetectedIndices).
func countExtra(s *sim.Simulator, out logic.Sequence, faults []fault.Fault, undetected []int, st *Stats) int {
	if len(undetected) == 0 {
		return 0
	}
	st.Simulations++
	r := s.RunSubset(out, faults, undetected, sim.Options{}, nil, nil)
	st.BatchSteps += r.BatchSteps
	return r.NumDetected()
}

// RestoreThenOmit applies the paper's Section 4 pipeline: restoration
// followed by omission. The returned stats are the omission stats with
// BeforeLen overridden to the original length and ExtraDetected summed
// over both passes.
func RestoreThenOmit(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault) (restored, omitted logic.Sequence, rst, ost Stats) {
	return RestoreThenOmitOpts(c, seq, faults, Options{})
}

// RestoreThenOmitOpts is RestoreThenOmit with explicit Options; both
// passes share one simulator (and machine pool).
func RestoreThenOmitOpts(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault, opts Options) (restored, omitted logic.Sequence, rst, ost Stats) {
	private := opts.Sim == nil
	opts.Sim = opts.simulator(c)
	if private {
		opts.Sim.Observe(opts.Obs)
	}
	restored, rst = RestoreOpts(c, seq, faults, opts)
	if rst.Status.Stopped() {
		// Omission must not run (or checkpoint) against a partial
		// restoration: resuming restore will extend the sequence, so an
		// omit checkpoint taken now could never be matched up again.
		ost = Stats{BeforeLen: len(restored), AfterLen: len(restored), Status: rst.Status, Err: rst.Err}
		return restored, restored, rst, ost
	}
	omitted, ost = OmitOpts(c, restored, faults, opts)
	return restored, omitted, rst, ost
}
