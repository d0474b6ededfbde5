package compact

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
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
//   - fault-free data (compact per-position state images plus output
//     rows) is maintained for the whole working sequence, and a trial's
//     fault-free suffix is recomputed only until its state reconverges
//     with the committed trajectory — on scan sequences that is about
//     one scan operation, not the remaining tail;
//   - a trial only simulates the faults whose detections are at stake,
//     each bounded just past its batch's latest previous detection,
//     packed 64 to a machine in earliest-deadline order with an early
//     exit on the first failure (see tryRemove).
type omitter struct {
	c      *netlist.Circuit
	sim    *sim.Simulator
	faults []fault.Fault
	in     logic.Sequence // input sequence, never mutated
	cur    logic.Sequence
	idx    []int // idx[i] = input position of cur[i]
	detAt  []int

	good *sim.Machine
	// goodImg[t] / goodRows[t] are the fault-free state image after and
	// the output row at cur[t] of the *committed* working sequence;
	// both are spliced and patched on every commit.
	goodImg  []sim.StateImage
	goodRows [][]logic.Value

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
	// cReconv counts trials whose fault-free suffix recomputation was
	// cut off by reconvergence with the committed trajectory.
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
// per-position good data and per-batch checkpoints. The per-batch
// replays are independent (each writes its own checkpoint list and a
// disjoint slice of detAt), so they fan out across the simulator's
// workers; the trial engine itself stays serial.
func newOmitter(s *sim.Simulator, seq logic.Sequence, faults []fault.Fault) *omitter {
	c := s.Circuit()
	o := &omitter{
		c:      c,
		sim:    s,
		faults: faults,
		in:     seq.Clone(),
		detAt:  make([]int, len(faults)),
		good:   s.Acquire(),
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
	o.rebuildGood()

	o.scratch = s.Acquire()
	o.replay = s.Acquire()
	nBatches := (len(faults) + sim.Slots - 1) / sim.Slots
	o.stride = omitCkptStride(len(seq), nBatches, c.NumFFs())
	o.batches = make([]*omitBatch, nBatches)
	o.winStates = make([]sim.State, nBatches)
	o.winHave = make([]bool, nBatches)
	initBatch := func(m *sim.Machine, bi int) {
		start := bi * sim.Slots
		end := start + sim.Slots
		if end > len(faults) {
			end = len(faults)
		}
		b := &omitBatch{start: start, n: end - start, faults: faults[start:end]}
		m.ClearFaults()
		m.Reset()
		for k, f := range b.faults {
			if err := m.InjectFault(f, uint64(1)<<uint(k)); err != nil {
				panic(err)
			}
		}
		allMask := o.batchMask(b)
		var detected uint64
		for t, v := range seq {
			if t%o.stride == 0 {
				b.ckpts = append(b.ckpts, m.SaveState())
			}
			m.Step(v)
			detected |= o.detectStep(m, b, o.goodRows[t], detected, allMask, t)
		}
		o.batches[bi] = b
	}
	nw := s.Workers()
	if nw > nBatches {
		nw = nBatches
	}
	if nw <= 1 {
		m := s.Acquire()
		for bi := 0; bi < nBatches; bi++ {
			initBatch(m, bi)
		}
		s.Release(m)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := s.Acquire()
				defer s.Release(m)
				for {
					bi := int(next.Add(1)) - 1
					if bi >= nBatches {
						return
					}
					initBatch(m, bi)
				}
			}()
		}
		wg.Wait()
	}
	o.sims += nBatches
	o.steps += int64(nBatches) * int64(len(seq))
	return o
}

// rebuildGood recomputes the committed fault-free data (state images
// and output rows) over the current working sequence from scratch.
// Used at construction and after a checkpoint resume rebuilt cur;
// everywhere else commits patch the arrays incrementally.
func (o *omitter) rebuildGood() {
	nPO := o.c.NumOutputs()
	o.good.ClearFaults()
	o.good.Reset()
	o.goodImg = make([]sim.StateImage, len(o.cur))
	o.goodRows = make([][]logic.Value, len(o.cur))
	for t, v := range o.cur {
		o.good.Step(v)
		o.goodImg[t] = o.good.StateImage()
		row := make([]logic.Value, nPO)
		for po := range row {
			row[po] = o.good.OutputSlot(po, 0)
		}
		o.goodRows[t] = row
	}
}

// close returns the omitter's pooled machines to the simulator.
func (o *omitter) close() {
	o.sim.Release(o.good)
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
	newly := outputDiff(m, goodRow) & allMask &^ detected
	for k := 0; k < b.n; k++ {
		if newly&(uint64(1)<<uint(k)) != 0 {
			o.detAt[b.start+k] = t
		}
	}
	return newly
}

// outputDiff returns the slots whose primary outputs on m definitely
// differ from the fault-free row.
func outputDiff(m *sim.Machine, row []logic.Value) uint64 {
	var diff uint64
	for po, gv := range row {
		if gv.IsBinary() {
			gz, gd := sim.ValuePlanes(gv)
			fz, fd := m.OutputPlanes(po)
			diff |= sim.DetectMask(gz, gd, fz, fd)
		}
	}
	return diff
}

// trialGood lazily produces the fault-free output rows of one trial
// sequence (cur with [lo, lo+removed) deleted). The recomputation is
// cut off as soon as the trial's fault-free state reconverges with the
// committed trajectory — from then on the committed rows, shifted by
// the removal, are the trial's rows verbatim. On success the produced
// span is exactly the patch a commit must apply to the committed
// arrays.
type trialGood struct {
	o           *omitter
	lo, removed int
	next        int // next trial position to produce
	conv        int // first position served from committed data, -1 while diverged
	rows        [][]logic.Value
	imgs        []sim.StateImage
}

// newTrialGood positions the omitter's good machine just before trial
// position lo and returns the provider. Nothing else may touch o.good
// until the trial ends.
func (o *omitter) newTrialGood(lo, removed int) *trialGood {
	if lo > 0 {
		o.good.SetStateImage(o.goodImg[lo-1])
	} else {
		o.good.Reset()
	}
	return &trialGood{o: o, lo: lo, removed: removed, next: lo, conv: -1}
}

// ensure produces trial rows for every position below bound (exclusive)
// unless reconvergence makes them unnecessary first.
func (tg *trialGood) ensure(bound int) {
	o := tg.o
	limit := len(o.cur) - tg.removed
	if bound > limit {
		bound = limit
	}
	nPO := o.c.NumOutputs()
	for tg.conv < 0 && tg.next < bound {
		o.good.Step(o.cur[tg.next+tg.removed])
		row := make([]logic.Value, nPO)
		for po := range row {
			row[po] = o.good.OutputSlot(po, 0)
		}
		tg.rows = append(tg.rows, row)
		tg.imgs = append(tg.imgs, o.good.StateImage())
		if o.good.StateEqualsImage(o.goodImg[tg.next+tg.removed]) {
			tg.conv = tg.next + 1
			o.cReconv.Inc()
		}
		tg.next++
	}
}

// row returns the trial's fault-free output row at trial position t.
// Only positions below a previous ensure bound (or below the
// reconvergence point) are valid.
func (tg *trialGood) row(t int) []logic.Value {
	if tg.conv >= 0 && t >= tg.conv {
		return tg.o.goodRows[t+tg.removed]
	}
	if t >= tg.next {
		tg.ensure(t + 1)
		if tg.conv >= 0 && t >= tg.conv {
			return tg.o.goodRows[t+tg.removed]
		}
	}
	return tg.rows[t-tg.lo]
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
	m.ClearFaults()
	for k, f := range b.faults {
		if err := m.InjectFault(f, uint64(1)<<uint(k)); err != nil {
			panic(err)
		}
	}
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
// reads the trial's fault-free rows, which tg produces on demand. The
// group fails as soon as the trial reaches the deadline of a member
// that is still undetected; on success the members' detection times
// are appended to hits.
func (o *omitter) runGroup(group []stakeFault, lo, removed int, tg *trialGood, hits []omitHit) ([]omitHit, bool) {
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
		newly := outputDiff(m, tg.row(t)) & all &^ detected
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
// detection times and the committed fault-free data are updated.
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
	if len(o.stakes) == 0 {
		o.commitTrial(lo, hi, nil, o.newTrialGood(lo, removed))
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
	tg := o.newTrialGood(lo, removed)
	var hits []omitHit
	for g := 0; g < len(o.stake); g += sim.Slots {
		end := g + sim.Slots
		if end > len(o.stake) {
			end = len(o.stake)
		}
		var ok bool
		hits, ok = o.runGroup(o.stake[g:end], lo, removed, tg, hits)
		o.sims++
		if !ok {
			return false
		}
	}
	o.commitHits(lo, hi, hits, tg)
	return true
}

// commitHits folds per-group detection hits into new detection times and
// commits the removal.
func (o *omitter) commitHits(lo, hi int, hits []omitHit, tg *trialGood) {
	newTimes := make(map[int]int, len(hits))
	for _, h := range hits {
		newTimes[h.fi] = h.t
	}
	o.commitTrial(lo, hi, newTimes, tg)
}

// commitTrial applies the removal, the re-recorded detection times and
// the fault-free data patch. The provider first finishes its span to
// the reconvergence point (or the sequence end); past that point the
// committed entries, shifted by the removal, are already correct.
func (o *omitter) commitTrial(lo, hi int, newTimes map[int]int, tg *trialGood) {
	tg.ensure(len(o.cur) - tg.removed)
	o.cRemoved.Add(int64(hi - lo))
	o.cur = append(o.cur[:lo], o.cur[hi:]...)
	o.idx = append(o.idx[:lo], o.idx[hi:]...)
	o.goodImg = append(o.goodImg[:lo], o.goodImg[hi:]...)
	o.goodRows = append(o.goodRows[:lo], o.goodRows[hi:]...)
	for i := range tg.rows {
		o.goodImg[lo+i] = tg.imgs[i]
		o.goodRows[lo+i] = tg.rows[i]
	}
	for fi, t := range newTimes {
		o.detAt[fi] = t
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
// committed fault-free data is recomputed over the rebuilt sequence.
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
	o.rebuildGood()
}
