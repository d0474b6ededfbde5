package compact

import (
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sim"
)

// ckptStride is the minimum spacing of per-batch faulty prefix
// checkpoints in the omission engine; omitCkptStride widens it when
// the full grid would not fit the memory budget.
const ckptStride = 32

// ckptBudgetBytes bounds the total memory spent on per-batch faulty
// prefix checkpoints. At stride 32 the full grid on an s35932-sized
// run (18k vectors × 87 batches × 27KB states) would cost over a
// gigabyte; widening the stride trades a bounded amount of prefix
// replay per trial for a hard cap.
const ckptBudgetBytes = 128 << 20

// omitCkptStride returns the checkpoint spacing for a run of nVec
// vectors, nBatches fault batches and nFF flip-flops: the ckptStride
// floor, widened until the grid fits ckptBudgetBytes.
func omitCkptStride(nVec, nBatches, nFF int) int {
	stride := ckptStride
	perCkpt := int64(nFF) * 16 // two uint64 planes per flip-flop
	if perCkpt == 0 || nVec == 0 || nBatches == 0 {
		return stride
	}
	total := int64(nVec) * int64(nBatches) * perCkpt
	if need := (total + ckptBudgetBytes - 1) / ckptBudgetBytes; need > int64(stride) {
		stride = int(need)
	}
	return stride
}

// omitter is the trial engine behind Omit. Vector omission processes
// removal candidates from the end of the sequence toward the front, so
// the prefix [0, lo) of the working sequence is always identical to the
// same prefix of the input sequence. The engine exploits that three
// ways:
//
//   - per-batch faulty states are checkpointed every stride positions
//     on the input prefix, and additionally memoized at the current
//     removal window's boundary, so a trial replays at most a window's
//     worth of prefix per batch;
//   - the complete fault-free trace of the working sequence is kept,
//     and each trial's trace is an edit of it (sim.Trace.Edit): the
//     prefix is copied, and the suffix is stepped only until its state
//     meets the committed trajectory — on scan sequences that is about
//     one scan operation, not the remaining tail;
//   - a trial only simulates the faults whose detections are at stake,
//     each bounded just past its batch's latest previous detection,
//     packed 64 to a machine in earliest-deadline order with an early
//     exit on the first failure (see tryRemove).
type omitter struct {
	sim    *sim.Simulator
	faults []fault.Fault
	in     logic.Sequence // input sequence, never mutated
	cur    logic.Sequence
	idx    []int // idx[i] = input position of cur[i]
	detAt  []int

	// good is the complete fault-free trace of cur; trial is tryRemove's
	// scratch for the trial sequence whose trace edits it.
	good  *sim.Trace
	trial logic.Sequence

	stride  int // spacing of per-batch prefix checkpoints
	batches []*omitBatch
	scratch *sim.Machine // simulates every trial group
	replay  *sim.Machine // fills the window memos
	sims    int
	steps   int64 // batch-vector simulation steps (see Stats.BatchSteps)

	// stakes and stake are tryRemove's per-trial scratch: the at-stake
	// batches and the at-stake faults in trial order.
	stakes []batchStake
	stake  []stakeFault

	// Window-boundary prefix memo: winStates[bi] (when winHave[bi])
	// holds batch bi's faulty state just before cur[winLo]. Valid for
	// the whole window because commits only remove positions >= winLo.
	// Entries are written the first time a trial group of the window
	// needs the batch and only read afterwards.
	winLo     int
	winStates []sim.State
	winHave   []bool

	// ctl is polled once per removal trial; stopStatus latches the stop
	// so the window loop can wind down and checkpoint.
	ctl        *runctl.Control
	stopStatus runctl.Status

	// cTrials and cRemoved are nil-safe observation counters (removal
	// trials attempted, vectors actually removed); OmitOpts sets them.
	cTrials  *obs.Counter
	cRemoved *obs.Counter
	// cReconv counts trials whose fault-free trace spliced onto the
	// committed trajectory.
	cReconv *obs.Counter
	// cWinHits counts the batches a trial group read from the
	// window-boundary memo instead of replaying a stride checkpoint.
	cWinHits *obs.Counter
}

// batchStake is one batch's share of a removal trial: the slots whose
// detections are at stake and the latest of those detections in trial
// positions.
type batchStake struct {
	bi     int
	mask   uint64
	maxDet int
}

// stakeFault is one at-stake fault of a removal trial: fault fi (slot
// fi%64 of batch fi/64), which must be re-detected before trial
// position deadline.
type stakeFault struct{ fi, deadline int }

type omitBatch struct {
	start, n int
	faults   []fault.Fault
	ckpts    []sim.State // state before vector j*stride of the input prefix
}

// newOmitter fault-simulates seq once, recording detection times,
// the fault-free trace and per-batch checkpoints. The per-batch
// replays are independent (each writes its own checkpoint list and a
// disjoint slice of detAt), so they fan out across the simulator's
// workers; the trial engine itself stays serial.
func newOmitter(s *sim.Simulator, seq logic.Sequence, faults []fault.Fault) *omitter {
	c := s.Circuit()
	o := &omitter{
		sim:    s,
		faults: faults,
		in:     seq.Clone(),
		detAt:  make([]int, len(faults)),
		winLo:  -1,
	}
	// cur starts as a fresh copy of in (commit splices cur's backing
	// array in place, so the two must not share one).
	o.cur = append(logic.Sequence(nil), o.in...)
	o.idx = make([]int, len(seq))
	for i := range o.idx {
		o.idx[i] = i
	}
	for i := range o.detAt {
		o.detAt[i] = sim.NotDetected
	}
	o.good = s.NewTrace(o.cur)
	o.good.Complete()

	o.scratch = s.Acquire()
	o.replay = s.Acquire()
	nBatches := (len(faults) + sim.Slots - 1) / sim.Slots
	o.stride = omitCkptStride(len(seq), nBatches, c.NumFFs())
	o.batches = make([]*omitBatch, nBatches)
	o.winStates = make([]sim.State, nBatches)
	o.winHave = make([]bool, nBatches)
	s.ForEachBatch(len(faults), func(m *sim.Machine, lo, hi int) {
		b := &omitBatch{start: lo, n: hi - lo, faults: faults[lo:hi]}
		m.InjectBatch(b.faults)
		m.Reset()
		allMask := o.batchMask(b)
		var detected uint64
		for t, v := range seq {
			if t%o.stride == 0 {
				b.ckpts = append(b.ckpts, m.SaveState())
			}
			m.Step(v)
			detected |= o.detectStep(m, b, o.good.Row(t), detected, allMask, t)
		}
		o.batches[lo/sim.Slots] = b
	})
	o.sims += nBatches
	o.steps += int64(nBatches) * int64(len(seq))
	return o
}

// close returns the omitter's pooled machines to the simulator.
func (o *omitter) close() {
	o.sim.Release(o.scratch)
	o.sim.Release(o.replay)
}

// beginWindow starts a removal window whose lowest candidate is lo,
// invalidating the previous window's prefix memos.
func (o *omitter) beginWindow(lo int) {
	o.winLo = lo
	for i := range o.winHave {
		o.winHave[i] = false
	}
}

func (o *omitter) batchMask(b *omitBatch) uint64 {
	if b.n < sim.Slots {
		return (uint64(1) << uint(b.n)) - 1
	}
	return sim.AllSlots
}

// detectStep compares the batch machine's outputs to the good values,
// records first detections into detAt at time t, and returns the newly
// detected mask.
func (o *omitter) detectStep(m *sim.Machine, b *omitBatch, goodRow []logic.Value, detected, allMask uint64, t int) uint64 {
	newly := m.OutputDiff(goodRow) & allMask &^ detected
	for k := 0; k < b.n; k++ {
		if newly&(uint64(1)<<uint(k)) != 0 {
			o.detAt[b.start+k] = t
		}
	}
	return newly
}

type omitHit struct{ fi, t int }

// windowState returns batch bi's faulty state just before cur[winLo].
// The first request of a window replays the batch from its nearest
// stride checkpoint on the replay machine and memoizes the state; later
// requests read the memo.
func (o *omitter) windowState(bi int) *sim.State {
	if o.winHave[bi] {
		o.cWinHits.Inc()
		return &o.winStates[bi]
	}
	b := o.batches[bi]
	m := o.replay
	m.InjectBatch(b.faults)
	j := o.winLo / o.stride
	if j >= len(b.ckpts) {
		j = len(b.ckpts) - 1
	}
	m.RestoreState(b.ckpts[j])
	for u := j * o.stride; u < o.winLo; u++ {
		m.Step(o.cur[u])
		o.steps++
	}
	m.SaveStateInto(&o.winStates[bi])
	o.winHave[bi] = true
	return &o.winStates[bi]
}

// runGroup simulates up to 64 at-stake faults of a removal trial on one
// machine, member k in slot k, and reports whether every member is
// re-detected before its deadline. Slots are independent, so a member's
// detection time does not depend on which faults share the machine.
// Each slot starts from its batch's window memo; the monitored suffix
// reads the trial's fault-free rows, which tr produces on demand. The
// group fails as soon as the trial reaches the deadline of a member
// that is still undetected; on success the members' detection times
// are appended to hits.
func (o *omitter) runGroup(group []stakeFault, lo, removed int, tr *sim.Trace, hits []omitHit) ([]omitHit, bool) {
	m := o.scratch
	m.ClearFaults()
	var st *sim.State
	for k, sf := range group {
		if err := m.InjectFault(o.faults[sf.fi], uint64(1)<<uint(k)); err != nil {
			panic(err)
		}
		if bi := sf.fi / sim.Slots; k == 0 || bi != group[k-1].fi/sim.Slots {
			st = o.windowState(bi)
		}
		m.LoadSlot(k, st, sf.fi%sim.Slots)
	}
	for u := o.winLo; u < lo; u++ {
		m.Step(o.cur[u])
		o.steps++
	}
	// Deadlines are ascending along the group (see tryRemove), so due,
	// the members whose deadline has been reached, grows from slot 0.
	all := sim.AllSlots >> uint(sim.Slots-len(group))
	var detected, due uint64
	next := 0
	for t := lo; ; t++ {
		for next < len(group) && group[next].deadline <= t {
			due |= uint64(1) << uint(next)
			next++
		}
		if due&^detected != 0 {
			return hits, false
		}
		m.Step(o.cur[t+removed])
		o.steps++
		newly := m.OutputDiff(tr.Row(t)) & all &^ detected
		if newly == 0 {
			continue
		}
		detected |= newly
		for k, sf := range group {
			if newly&(uint64(1)<<uint(k)) != 0 {
				hits = append(hits, omitHit{fi: sf.fi, t: t})
			}
		}
		if detected == all {
			return hits, true
		}
	}
}

// tryRemove attempts to delete cur[lo:hi]. slack bounds how far past
// its previous detection time a fault may drift before the removal is
// (conservatively) rejected. On success the working sequence, the
// detection times and the committed fault-free trace are updated.
func (o *omitter) tryRemove(lo, hi, slack int) bool {
	// Cancellation/deadline is polled per trial, but trials are not
	// charged against MaxTrials here: the budget is charged per removal
	// window (the atomic resume unit), which guarantees every resumed
	// leg makes progress no matter how small the budget.
	if st, stop := o.ctl.ShouldStop(); stop {
		o.stopStatus = st
		return false
	}
	o.cTrials.Inc()
	removed := hi - lo
	// Per batch: the at-stake mask and the latest affected detection
	// expressed in post-removal indices.
	o.stakes = o.stakes[:0]
	for bi, b := range o.batches {
		var mask uint64
		maxDet := 0
		for k := 0; k < b.n; k++ {
			d := o.detAt[b.start+k]
			if d == sim.NotDetected || d < lo {
				continue
			}
			mask |= uint64(1) << uint(k)
			if d >= hi {
				d -= removed
			}
			if d > maxDet {
				maxDet = d
			}
		}
		if mask != 0 {
			o.stakes = append(o.stakes, batchStake{bi: bi, mask: mask, maxDet: maxDet})
		}
	}
	o.trial = append(append(o.trial[:0], o.cur[:lo]...), o.cur[hi:]...)
	tr := o.good.Edit(o.trial)
	if len(o.stakes) == 0 {
		o.commitTrial(lo, hi, nil, tr)
		return true
	}
	// Cheapest (earliest-deadline) batches first: failures surface at
	// minimal cost.
	stakes := o.stakes
	for i := 1; i < len(stakes); i++ {
		for j := i; j > 0 && stakes[j].maxDet < stakes[j-1].maxDet; j-- {
			stakes[j], stakes[j-1] = stakes[j-1], stakes[j]
		}
	}

	// Every batch may run up to the same global bound: the latest
	// previous detection plus slack. Each batch individually gets four
	// slacks past its own latest detection before the removal is
	// (conservatively) rejected. Each at-stake fault takes its batch's
	// bound as its deadline; the list keeps the batch order and slot
	// order within a batch, so deadlines ascend along it.
	maxBound := stakes[len(stakes)-1].maxDet + slack
	if suffixLimit := len(o.cur) - removed; maxBound > suffixLimit {
		maxBound = suffixLimit
	}
	o.stake = o.stake[:0]
	for _, bs := range stakes {
		bound := bs.maxDet + 4*slack
		if bound > maxBound {
			bound = maxBound
		}
		for k := 0; k < sim.Slots; k++ {
			if bs.mask&(uint64(1)<<uint(k)) != 0 {
				o.stake = append(o.stake, stakeFault{fi: bs.bi*sim.Slots + k, deadline: bound})
			}
		}
	}
	// Pack the list 64 faults to a machine; the trial fails with the
	// first failing group.
	var hits []omitHit
	for g := 0; g < len(o.stake); g += sim.Slots {
		end := g + sim.Slots
		if end > len(o.stake) {
			end = len(o.stake)
		}
		var ok bool
		hits, ok = o.runGroup(o.stake[g:end], lo, removed, tr, hits)
		o.sims++
		if !ok {
			tr.Release()
			if tr.Spliced() {
				o.cReconv.Inc()
			}
			return false
		}
	}
	o.commitTrial(lo, hi, hits, tr)
	return true
}

// commitTrial applies the removal and the re-recorded detection times,
// and completes the trial's trace to make it the committed one.
func (o *omitter) commitTrial(lo, hi int, hits []omitHit, tr *sim.Trace) {
	tr.Complete()
	if tr.Spliced() {
		o.cReconv.Inc()
	}
	o.good = tr
	o.cRemoved.Add(int64(hi - lo))
	o.cur = append(o.cur[:lo], o.cur[hi:]...)
	o.idx = append(o.idx[:lo], o.idx[hi:]...)
	for _, h := range hits {
		o.detAt[h.fi] = h.t
	}
}

// keptMask renders which input positions are still in the working
// sequence as a '0'/'1' string of inLen characters.
func (o *omitter) keptMask(inLen int) string {
	m := make([]byte, inLen)
	for i := range m {
		m[i] = '0'
	}
	for _, i := range o.idx {
		m[i] = '1'
	}
	return string(m)
}

// restoreFrom rebuilds the working sequence from a checkpointed kept
// mask and detection-time array. Positions below the next removal
// window are untouched by construction (windows run back to front), so
// the prefix invariant the trial engine relies on still holds; the
// committed fault-free trace is rebuilt for the new sequence.
func (o *omitter) restoreFrom(kept string, detAt []int) {
	o.cur = o.cur[:0]
	o.idx = o.idx[:0]
	for i := 0; i < len(kept); i++ {
		if kept[i] == '1' {
			o.cur = append(o.cur, o.in[i])
			o.idx = append(o.idx, i)
		}
	}
	copy(o.detAt, detAt)
	o.good = o.sim.NewTrace(o.cur)
	o.good.Complete()
}
