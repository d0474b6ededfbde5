package sim

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/runctl"
)

// Simulator owns a pool of reusable Machines for one circuit and fans
// fault batches out across worker goroutines. Test compaction issues
// millions of Run calls; reusing one Simulator across a whole
// compaction loop replaces per-call machine allocation with pool
// checkouts, and multi-batch runs spread across cores.
//
// Results are bit-identical to serial simulation: every fault batch is
// independent given the fault-free output trace, so worker count and
// scheduling change wall-clock time only, never DetectedAt. A Simulator
// is safe for concurrent use by multiple goroutines.
type Simulator struct {
	c       *netlist.Circuit
	workers int
	pool    sync.Pool

	// Fault-free trace cache: compaction trial loops re-simulate the
	// same sequence (by vector identity) against different fault
	// subsets, and rebuilding the trace dominated those runs. The most
	// recent trace is kept (with its machine checked out) and reused
	// when the next Run's sequence matches; a trace that replaces it
	// reuses its shared prefix and splices onto its shared tail
	// (newTrace). Guarded by trMu; refs/cached on goodTrace track
	// in-flight users so a replaced trace's machine is released only by
	// its last user.
	trMu   sync.Mutex
	cached *goodTrace

	// Observability instruments, resolved once by Observe. All are
	// nil-safe, so the default (unobserved) simulator pays one nil
	// check per update — never per gate or per vector. Pool and trace
	// counters are scheduling-dependent under concurrency; the
	// batch-step and fast-forward counters are deterministic.
	cRuns, cBatches, cSteps, cFastFwd  *obs.Counter
	cPoolHit, cPoolMiss                *obs.Counter
	cTraceHit, cTraceMiss              *obs.Counter
	cTracePrefixHit, cTracePrefixSteps *obs.Counter
	cTraceSpliceHit, cTraceSpliceSteps *obs.Counter
}

// NewSimulator returns a Simulator for circuit c running fault batches
// on up to workers goroutines. workers <= 0 is clamped to
// runtime.GOMAXPROCS(0), so any non-positive value means "all cores";
// results are identical for every worker count. A nil circuit panics
// here with a clear message instead of failing later inside Acquire.
func NewSimulator(c *netlist.Circuit, workers int) *Simulator {
	if c == nil {
		panic("sim: NewSimulator called with nil circuit")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Simulator{c: c, workers: workers}
}

// Circuit returns the circuit this Simulator simulates.
func (s *Simulator) Circuit() *netlist.Circuit { return s.c }

// Observe attaches an observer under the "sim" phase: machine-pool
// hits/misses, trace-cache hits/misses, trace prefix and splice reuse,
// runs, batches, batch steps and fast-forwarded cycles. Pass nil to
// detach. Attach before issuing Runs; the method is not synchronized
// with in-flight calls.
func (s *Simulator) Observe(o obs.Observer) {
	s.cRuns = obs.C(o, "sim.runs")
	s.cBatches = obs.C(o, "sim.batches")
	s.cSteps = obs.C(o, "sim.batch_steps")
	s.cFastFwd = obs.C(o, "sim.fastforwarded")
	s.cPoolHit = obs.C(o, "sim.pool_hits")
	s.cPoolMiss = obs.C(o, "sim.pool_misses")
	s.cTraceHit = obs.C(o, "sim.trace_hits")
	s.cTraceMiss = obs.C(o, "sim.trace_misses")
	s.cTracePrefixHit = obs.C(o, "sim.trace_prefix_hits")
	s.cTracePrefixSteps = obs.C(o, "sim.trace_prefix_steps")
	s.cTraceSpliceHit = obs.C(o, "sim.trace_splice_hits")
	s.cTraceSpliceSteps = obs.C(o, "sim.trace_splice_steps")
}

// Workers returns the configured worker count.
func (s *Simulator) Workers() int { return s.workers }

// Acquire checks a Machine out of the pool, cleared of faults and with
// every flip-flop reset to X — indistinguishable from a fresh New.
// Return it with Release when done.
func (s *Simulator) Acquire() *Machine {
	if v := s.pool.Get(); v != nil {
		s.cPoolHit.Inc()
		m := v.(*Machine)
		m.ClearFaults()
		m.Reset()
		return m
	}
	s.cPoolMiss.Inc()
	return New(s.c)
}

// Release returns a Machine obtained from Acquire to the pool.
func (s *Simulator) Release(m *Machine) { s.pool.Put(m) }

// goodTrace computes the fault-free trace of a sequence lazily and
// shares it between batch workers: vector t is produced at most once,
// under the mutex, and published through the atomic counter so warm
// reads take no lock. Lazy extension preserves the serial path's early
// exit — the good machine advances only as far as the slowest batch
// actually needs.
//
// Besides the primary-output rows the full-evaluation kernel compares
// against, the trace (for the event kernel) caches a compact image of
// every vector: two bits per signal (can-be-0, can-be-1) plus two bits
// per flip-flop of the state reached after the vector. The good
// machine's planes are uniform across all 64 slots — no faults, inputs
// broadcast — so slot 0 carries the whole picture and the image costs
// 2·ceil(nSig/64)+2·ceil(nFF/64) words per vector. Image layout:
// [sigZero | sigOne | ffZero | ffOne]. A Trace's images have no signal
// half (sigW is 0): no kernel reads them, and a splice compares only
// the flip-flop half.
type goodTrace struct {
	seq      logic.Sequence
	m        *Machine
	mu       sync.Mutex
	produced atomic.Int64
	rows     [][]logic.Value

	withImages bool
	sigW, ffW  int
	imgs       [][]uint64

	// Splice source (see linkTail): the replaced trace whose sequence
	// ends in the same vectors. Position p >= srcFrom of this trace runs
	// the vector of position p-srcOff of src. src is frozen — evicted
	// with no users, or complete, so nothing extends it — and never has
	// a source of its own. spliced records that a splice happened.
	// Guarded by mu.
	src     *goodTrace
	srcFrom int
	srcOff  int
	spliced bool
	owner   *Simulator // for the splice counters

	// Cache bookkeeping, guarded by the owning Simulator's trMu.
	refs   int  // in-flight Run calls using this trace
	cached bool // still the Simulator's cached trace
}

// newTrace builds the trace for seq/opts, warm-started from old (the
// trace it is about to replace, or nil) where the two agree. ffOnly
// drops the signal half of the images.
func (s *Simulator) newTrace(seq logic.Sequence, opts Options, ffOnly bool, old *goodTrace) *goodTrace {
	tr := &goodTrace{
		// The header array is copied so the cached trace's key cannot
		// alias a caller's reused sequence buffer (compaction builds
		// trial sequences into one scratch slice); the vectors
		// themselves are shared.
		seq:   append(logic.Sequence(nil), seq...),
		m:     s.Acquire(),
		rows:  make([][]logic.Value, len(seq)),
		owner: s,
	}
	if opts.Kernel != KernelFull {
		tr.withImages = true
		if !ffOnly {
			tr.sigW = (len(s.c.Signals) + 63) / 64
		}
		tr.ffW = (len(s.c.FFs) + 63) / 64
		tr.imgs = make([][]uint64, len(seq))
	}
	if old != nil && old.withImages && tr.withImages {
		s.seedTracePrefix(tr, old)
		if old.refs == 0 {
			tr.linkTail(old)
		}
	}
	return tr
}

// seedTracePrefix warm-starts a fresh trace from the trace it replaces:
// a sequence that edits the previous one past its start (omission drops
// a window, a caller appends vectors) repeats the old trace's rows
// and images up to the first differing vector verbatim. The shared
// rows/images are immutable once produced, and the good machine
// restarts from the flip-flop state the last shared image carries, so
// producing vector p next is indistinguishable from having stepped
// 0..p-1. Restoration trials insert in front and share a tail instead;
// linkTail serves them. Called (from newTrace) under trMu or on a
// complete Trace; a cached old trace may be mid-extension on another
// goroutine, so its produced counter is read once and only
// fully-published vectors are shared.
func (s *Simulator) seedTracePrefix(tr, old *goodTrace) {
	limit := min(int(old.produced.Load()), len(tr.seq))
	p := 0
	for p < limit && sameVector(tr.seq[p], old.seq[p]) {
		p++
	}
	if p == 0 {
		return
	}
	copy(tr.rows[:p], old.rows[:p])
	copy(tr.imgs[:p], old.imgs[:p])
	tr.m.setStateFromTraceImage(old.imgs[p-1], tr.sigW, tr.ffW)
	tr.produced.Store(int64(p))
	s.cTracePrefixHit.Inc()
	s.cTracePrefixSteps.Add(int64(p))
}

// linkTail records old as tr's splice source when the two sequences end
// in the same vectors and old has produced at least the first position
// of that tail (a splice compares it and adopts what follows). Vector
// restoration inserts a block in front of the kept vectors, and vector
// omission deletes a window from them, so consecutive trials share a
// tail; on a scan circuit one scan operation overwrites the state, so
// their fault-free trajectories soon meet again, and from there on old's
// rows and images are tr's (see splice). Called with old unused (under
// trMu) or complete, so old is frozen.
func (tr *goodTrace) linkTail(old *goodTrace) {
	n, m := len(tr.seq), len(old.seq)
	l := 0
	for l < n && l < m && sameVector(tr.seq[n-1-l], old.seq[m-1-l]) {
		l++
	}
	if l == 0 || int(old.produced.Load()) < m-l+1 {
		return
	}
	tr.src, tr.srcFrom, tr.srcOff = old, n-l, n-m
}

// sameVector reports vector identity: same backing array, same length.
func sameVector(a, b logic.Vector) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// matches reports whether this trace serves a Run of seq with opts. The
// sequence is compared by per-vector slice identity (same backing
// array, same length) — Run's documented assumption that callers do not
// mutate vectors in place makes identity imply equality, and compaction
// trial loops pass the same vector slices over and over.
func (tr *goodTrace) matches(seq logic.Sequence, opts Options) bool {
	if opts.Kernel != KernelFull && !tr.withImages {
		return false
	}
	return slices.EqualFunc(seq, tr.seq, sameVector)
}

// acquireTrace returns a trace for seq/opts, reusing the cached one when
// it matches and replacing it otherwise. Pair with releaseTrace.
func (s *Simulator) acquireTrace(seq logic.Sequence, opts Options) *goodTrace {
	s.trMu.Lock()
	defer s.trMu.Unlock()
	if c := s.cached; c != nil && c.matches(seq, opts) {
		s.cTraceHit.Inc()
		c.refs++
		return c
	}
	s.cTraceMiss.Inc()
	old := s.cached
	tr := s.newTrace(seq, opts, false, old)
	tr.refs = 1
	tr.cached = true
	if old != nil {
		old.cached = false
		if old.refs == 0 {
			s.retireTrace(old)
		}
	}
	s.cached = tr
	return tr
}

// releaseTrace drops one reference; an evicted trace retires with the
// last reference. The cached trace keeps its machine checked out so the
// next matching Run continues where the trace left off.
func (s *Simulator) releaseTrace(tr *goodTrace) {
	s.trMu.Lock()
	defer s.trMu.Unlock()
	tr.refs--
	if tr.refs == 0 && !tr.cached {
		s.retireTrace(tr)
	}
}

// retireTrace returns an evicted, unused trace's machine to the pool and
// drops its splice source, so a trace that becomes the next one's source
// holds none of its own. Called under trMu.
func (s *Simulator) retireTrace(tr *goodTrace) {
	tr.src = nil
	s.Release(tr.m)
}

// ensure advances the shared good machine through vector t, capturing
// output rows (and, for the event kernel, compact images) of every
// produced vector. Past the start of a shared tail, each produced
// position is offered to splice, which may adopt many positions at once.
func (tr *goodTrace) ensure(t int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for p := int(tr.produced.Load()); p <= t; p++ {
		tr.m.Step(tr.seq[p])
		tr.rows[p] = tr.m.OutputRow()
		if tr.withImages {
			tr.imgs[p] = tr.captureImage()
		}
		tr.produced.Store(int64(p + 1))
		if tr.src != nil && p >= tr.srcFrom {
			p = tr.splice(p)
		}
	}
}

// splice compares the flip-flop state after shared-tail position p with
// the source's state after the same vector. Equal states under equal
// vectors stay equal, so on a match the source's published rows and
// images for the rest of the tail are this trace's verbatim: they are
// adopted (they are immutable once produced; a match at the source's
// last produced position adopts nothing), the good machine restarts
// from the last adopted image, and the last adopted position is
// returned. The source is dropped at the splice and once it has nothing
// beyond p to offer. Called under tr.mu.
func (tr *goodTrace) splice(p int) int {
	src := tr.src
	q := p - tr.srcOff
	limit := int(src.produced.Load())
	if q+1 >= limit {
		tr.src = nil
	}
	ff := 2 * tr.sigW
	if q >= limit || !slices.Equal(tr.imgs[p][ff:], src.imgs[q][ff:]) {
		return p
	}
	tr.src = nil
	tr.spliced = true
	end := limit + tr.srcOff
	copy(tr.rows[p+1:end], src.rows[q+1:limit])
	copy(tr.imgs[p+1:end], src.imgs[q+1:limit])
	tr.m.setStateFromTraceImage(tr.imgs[end-1], tr.sigW, tr.ffW)
	tr.produced.Store(int64(end))
	tr.owner.cTraceSpliceHit.Inc()
	tr.owner.cTraceSpliceSteps.Add(int64(end - p - 1))
	return end - 1
}

// captureImage compresses slot 0 of the good machine's planes into a
// per-vector image (see goodTrace).
func (tr *goodTrace) captureImage() []uint64 {
	m := tr.m
	img := make([]uint64, 2*tr.sigW+2*tr.ffW)
	if tr.sigW > 0 {
		for s := range m.zero {
			w, b := s>>6, uint(s)&63
			img[w] |= (m.zero[s] & 1) << b
			img[tr.sigW+w] |= (m.one[s] & 1) << b
		}
	}
	base := 2 * tr.sigW
	for fi := range m.sz {
		w, b := fi>>6, uint(fi)&63
		img[base+w] |= (m.sz[fi] & 1) << b
		img[base+tr.ffW+w] |= (m.so[fi] & 1) << b
	}
	return img
}

// setStateFromTraceImage restores the flip-flop planes from the
// flip-flop half of a trace image (layout [sigZero | sigOne | ffZero |
// ffOne]); the signal half is ignored because the next Step recomputes
// every signal. Trace images come from the fault-free machine, which is
// slot-uniform, so the broadcast reproduces the exact state.
func (m *Machine) setStateFromTraceImage(img []uint64, sigW, ffW int) {
	base := 2 * sigW
	for fi := range m.sz {
		w, b := fi>>6, uint(fi)&63
		m.sz[fi] = -(img[base+w] >> b & 1)
		m.so[fi] = -(img[base+ffW+w] >> b & 1)
	}
}

// row returns the fault-free output values at vector t, extending the
// trace if needed.
func (tr *goodTrace) row(t int) []logic.Value {
	if int64(t) >= tr.produced.Load() {
		tr.ensure(t)
	}
	return tr.rows[t]
}

// image returns the compact fault-free image of vector t, extending the
// trace if needed. Only valid on traces built for the event kernel.
func (tr *goodTrace) image(t int) []uint64 {
	if int64(t) >= tr.produced.Load() {
		tr.ensure(t)
	}
	return tr.imgs[t]
}

// Trace is a caller-owned fault-free trace of one sequence from the
// all-X state, produced lazily like the traces Run caches. A trial loop
// that edits one committed sequence keeps the committed sequence's
// complete trace and builds each trial's trace with Edit, which steps
// only between the shared prefix and the point where the trial's state
// meets the committed trajectory. Its images hold only the flip-flop
// half, which is all a splice compares.
type Trace struct{ tr *goodTrace }

// NewTrace returns the trace of seq from the all-X state. As with Run,
// vectors are compared by identity, so callers must not mutate a
// vector's contents in place.
func (s *Simulator) NewTrace(seq logic.Sequence) *Trace {
	return &Trace{s.newTrace(seq, Options{}, true, nil)}
}

// Edit completes t and returns the trace of seq, an edit of t's
// sequence. Positions before the first vector the two do not share are
// copied from t (seedTracePrefix). If the two end in the same vectors,
// the first shared-tail position where the two states agree adopts the
// rest of t (linkTail, splice).
func (t *Trace) Edit(seq logic.Sequence) *Trace {
	t.Complete()
	return &Trace{t.tr.owner.newTrace(seq, Options{}, true, t.tr)}
}

// Row returns the fault-free output values at position p, producing the
// trace through p if needed.
func (t *Trace) Row(p int) []logic.Value { return t.tr.row(p) }

// Spliced reports whether the trace, as far as it has been produced,
// has met the state of the trace it edits and adopted the rest of it.
func (t *Trace) Spliced() bool {
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	return t.tr.spliced
}

// Complete produces every position and releases the trace.
func (t *Trace) Complete() {
	t.tr.ensure(len(t.tr.seq) - 1)
	t.Release()
}

// Release returns the trace's good machine to the pool and drops its
// splice source. Produced positions stay readable, but the trace can
// produce no more. Releasing twice is harmless.
func (t *Trace) Release() {
	tr := t.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.m != nil {
		tr.owner.Release(tr.m)
		tr.m, tr.src = nil, nil
	}
}

// Run fault-simulates seq against faults exactly like the package-level
// Run, using the machine pool and up to Workers() goroutines (one fault
// batch of 64 at a time per worker). Detection results and BatchSteps
// are identical for every worker count.
//
// The fault-free trace of seq is cached across calls keyed by vector
// identity: callers must not mutate a vector's contents in place
// between Run calls on the same Simulator (replacing vectors or
// building new sequences is fine — identity then changes).
func (s *Simulator) Run(seq logic.Sequence, faults []fault.Fault, opts Options) Result {
	return s.runInto(seq, faults, opts, make([]int, len(faults)))
}

// runInto is Run writing detections into the caller-provided det slice
// (len(det) == len(faults)), which becomes the result's DetectedAt.
//
// With opts.Control set, batch boundaries are cancellation points:
// workers stop claiming batches once the budget stops the run (or once
// any batch fails), in-flight batches drain, and the partial detection
// state is checkpointed. Worker panics are recovered into a PanicError
// on Result.Err; without a Control the PanicError re-panics on the
// calling goroutine so legacy callers keep fail-fast semantics, but the
// process can no longer die (or leak workers) from a panic on an
// unattended worker goroutine.
func (s *Simulator) runInto(seq logic.Sequence, faults []fault.Fault, opts Options, det []int) Result {
	res := Result{DetectedAt: det}
	for i := range det {
		det[i] = NotDetected
	}
	if len(seq) == 0 || len(faults) == 0 {
		return res
	}
	ctl := opts.Control
	nBatches := (len(faults) + Slots - 1) / Slots
	done := make([]bool, nBatches)
	resumed := false
	if ctl.Resuming() {
		var err error
		resumed, err = loadSimCheckpoint(ctl, len(faults), len(seq), nBatches, done, det)
		if err != nil {
			res.Status = runctl.Failed
			res.Err = err
			ctl.Fail()
			return res
		}
	}

	tr := s.acquireTrace(seq, opts)
	defer s.releaseTrace(tr)

	nw := s.workers
	if nw > nBatches {
		nw = nBatches
	}
	if nw <= 1 {
		m := s.Acquire()
		for bi := 0; bi < nBatches; bi++ {
			if done[bi] {
				continue
			}
			if st, stop := ctl.ShouldStop(); stop {
				res.Status = st
				break
			}
			steps, skipped, err := s.runBatchSafe(m, tr, seq, faults, bi, opts, det)
			res.BatchSteps += steps
			res.FastForwarded += skipped
			if err != nil {
				res.Err = err
				res.Status = runctl.Failed
				ctl.Fail()
				break
			}
			done[bi] = true
			if ctl != nil && ctl.Store != nil {
				saveSimCheckpoint(ctl, len(seq), done, det, true)
			}
		}
		s.Release(m)
		return s.finishRun(res, ctl, opts, seq, done, det, resumed)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	steps := make([]int64, nw)
	skips := make([]int64, nw)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := s.Acquire()
			defer s.Release(m)
			for {
				if failed.Load() {
					return
				}
				if _, stop := ctl.ShouldStop(); stop {
					return
				}
				bi := int(next.Add(1)) - 1
				if bi >= nBatches {
					return
				}
				if done[bi] {
					continue
				}
				// Batches write disjoint DetectedAt and done indices, so
				// no synchronization beyond the WaitGroup is needed.
				st, sk, err := s.runBatchSafe(m, tr, seq, faults, bi, opts, det)
				steps[w] += st
				skips[w] += sk
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					ctl.Fail()
					return
				}
				done[bi] = true
			}
		}(w)
	}
	wg.Wait()
	for w := range steps {
		res.BatchSteps += steps[w]
		res.FastForwarded += skips[w]
	}
	if firstErr != nil {
		res.Err = firstErr
		res.Status = runctl.Failed
	} else if st, stop := ctl.ShouldStop(); stop {
		res.Status = st
	}
	return s.finishRun(res, ctl, opts, seq, done, det, resumed)
}

// finishRun settles the result's final Status, persists the checkpoint,
// and re-panics recovered worker failures for control-less callers.
func (s *Simulator) finishRun(res Result, ctl *runctl.Control, opts Options, seq logic.Sequence, done []bool, det []int, resumed bool) Result {
	s.cRuns.Inc()
	s.cSteps.Add(res.BatchSteps)
	s.cFastFwd.Add(res.FastForwarded)
	if res.Err != nil && ctl == nil {
		panic(res.Err)
	}
	if !res.Status.Stopped() {
		res.Status = runctl.Final(resumed)
	}
	if ctl != nil && ctl.Store != nil {
		if err := saveSimCheckpoint(ctl, len(seq), done, det, false); err != nil && res.Err == nil {
			res.Err = err
		}
	}
	return res
}

// runBatchSafe runs one fault batch through the selected kernel,
// converting a panic anywhere under it into a PanicError that names the
// batch's global fault index range and carries the stack.
func (s *Simulator) runBatchSafe(m *Machine, tr *goodTrace, seq logic.Sequence, faults []fault.Fault, bi int, opts Options, out []int) (steps, skipped int64, err error) {
	s.cBatches.Inc()
	defer func() {
		if r := recover(); r != nil {
			end := (bi + 1) * Slots
			if end > len(faults) {
				end = len(faults)
			}
			err = &PanicError{BatchStart: bi * Slots, BatchEnd: end, Value: r, Stack: debug.Stack()}
		}
	}()
	// Fault-injection site for worker failure testing: an armed error
	// fails the batch, an armed panic exercises the recover path above.
	if err := failpoint.Inject("sim.worker.batch"); err != nil {
		return 0, 0, err
	}
	steps, skipped = s.runBatchKernel(m, tr, seq, faults, bi*Slots, opts, out)
	return steps, skipped, nil
}

// runBatchKernel dispatches one fault batch to the kernel selected by
// opts.Kernel.
func (s *Simulator) runBatchKernel(m *Machine, tr *goodTrace, seq logic.Sequence, faults []fault.Fault, start int, opts Options, out []int) (steps, skipped int64) {
	if opts.Kernel == KernelFull {
		return s.runBatch(m, tr, seq, faults, start, out), 0
	}
	return s.runBatchEvent(m, tr, seq, faults, start, out)
}

// runBatch simulates the 64-fault batch starting at fault index start
// through seq, recording first detections into out, and exits as soon
// as every fault of the batch is detected. It returns the number of
// batch steps executed.
func (s *Simulator) runBatch(m *Machine, tr *goodTrace, seq logic.Sequence, faults []fault.Fault, start int, out []int) int64 {
	n := startBatch(m, faults, start)
	return s.runFullTail(m, tr, seq, 0, n, start, 0, out)
}

// startBatch loads the batch of up to 64 faults starting at fault index
// start into m, from the all-X state, and returns its size.
func startBatch(m *Machine, faults []fault.Fault, start int) int {
	batch := faults[start:min(start+Slots, len(faults))]
	m.InjectBatch(batch)
	m.Reset()
	return len(batch)
}

// runFullTail runs the full-evaluation loop over seq[t0:] for an
// n-fault batch already injected into m, with detected carrying the
// slots found before t0. It is the whole of runBatch's loop (t0 = 0)
// and the continuation target when the event kernel hands off a wide
// batch mid-sequence. Returns the number of steps executed.
func (s *Simulator) runFullTail(m *Machine, tr *goodTrace, seq logic.Sequence, t0, n, start int, detected uint64, out []int) int64 {
	allMask := AllSlots
	if n < Slots {
		allMask = (uint64(1) << uint(n)) - 1
	}
	var steps int64
	for t := t0; t < len(seq); t++ {
		row := tr.row(t)
		m.Step(seq[t])
		steps++
		if newly := m.OutputDiff(row) &^ detected & allMask; newly != 0 {
			detected |= newly
			for k := 0; k < n; k++ {
				if newly&(uint64(1)<<uint(k)) != 0 {
					out[start+k] = t
				}
			}
		}
		if detected == allMask {
			break
		}
	}
	return steps
}

// RunSubset is Run restricted to the fault indices in subset; the
// result's DetectedAt is keyed by subset position (DetectedAt[i] is the
// detection cycle of faults[subset[i]]). buf, when non-nil, is reused
// as scratch for the gathered faults, and out, when of sufficient
// capacity, backs the result's DetectedAt — both avoid per-call
// allocation in tight trial loops.
func (s *Simulator) RunSubset(seq logic.Sequence, faults []fault.Fault, subset []int, opts Options, buf []fault.Fault, out []int) Result {
	buf = buf[:0]
	for _, fi := range subset {
		buf = append(buf, faults[fi])
	}
	if cap(out) < len(subset) {
		out = make([]int, len(subset))
	}
	return s.runInto(seq, buf, opts, out[:len(subset)])
}
