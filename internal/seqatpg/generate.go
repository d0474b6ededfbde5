// Package seqatpg implements the paper's Section 2 test generation
// procedure: a forward-time sequential test generator for non-scan
// circuits, applied to the scan circuit C_scan with scan_sel and
// scan_inp treated as ordinary primary inputs — plus the
// "functional-level knowledge of scan" enhancement that flushes fault
// effects out of the scan chain when ordinary propagation fails.
//
// The generator builds the test sequence T by concatenating, per target
// fault, a subsequence generated forward in time from the final
// fault-free state reached under T. Each frame's input vector is chosen
// from a candidate pool — a deterministic PODEM suggestion for the
// single frame plus pseudo-random vectors — scored by how far the fault
// effect travels (detection ≫ effects latched in flip-flops, deeper
// chain positions preferred, then excitation and state initialization).
package seqatpg

import (
	"math/bits"

	"repro/internal/combatpg"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Options tunes the generator. Zero values select defaults.
type Options struct {
	// Seed drives every pseudo-random choice; runs are deterministic
	// in (circuit, fault list, Options).
	Seed uint64
	// DisableScanKnowledge turns off the paper's functional-level
	// enhancement (flushing effects to scan_out); used for ablation.
	DisableScanKnowledge bool
	// Passes is how many times the undetected faults are retried with
	// fresh random choices (default 2).
	Passes int
	// Workers is the fault-simulation worker count for stepping the
	// incremental fault batches (0 = GOMAXPROCS). The generated
	// sequence is identical for every value.
	Workers int
	// Control, when non-nil, threads budget/cancellation and optional
	// checkpointing through the run. Generate polls it before every
	// per-fault attempt; on a stop it saves its state under the
	// "generate" section and returns the partial result with the stop
	// Status. A resumed run continues the attempt loop exactly where it
	// stopped and produces a sequence bit-identical to an uninterrupted
	// run.
	Control *runctl.Control
	// Obs, when non-nil, receives the run's instrumentation under the
	// "generate" phase: per-attempt events, attempt/PODEM/flush
	// counters and the run timer (see docs/ALGORITHMS.md §11). Purely
	// observational — the generated sequence is identical with or
	// without it.
	Obs obs.Observer
}

const (
	// candidates is the number of vectors evaluated per frame, the
	// PODEM suggestion included; one StepMulti runs them all, so it is
	// at most sim.Slots.
	candidates = 16
	// podemBacktracks bounds the per-frame PODEM search; the search
	// that may also assign the present state gets 10 times as many.
	podemBacktracks = 30
)

// maxFrames bounds the length of one subsequence attempt on a circuit
// with nsv state variables.
func maxFrames(nsv int) int { return min(2*nsv+10, 80) }

func (o Options) withDefaults() Options {
	if o.Passes <= 0 {
		o.Passes = 2
	}
	return o
}

// Result is the outcome of Generate.
type Result struct {
	// Sequence is the generated test sequence for C_scan; its length
	// is the test application time in clock cycles.
	Sequence logic.Sequence
	// DetectedAt[i] is the vector index at which fault i is detected,
	// or sim.NotDetected.
	DetectedAt []int
	// Funct[i] marks faults detected through the scan-knowledge flush
	// mechanism (the paper's "funct" column in Table 5).
	Funct []bool
	// Status classifies the run: Complete/Resumed mark a full result,
	// any Stopped() status marks a partial one that a checkpoint can
	// continue.
	Status runctl.Status
	// Err carries the checkpoint load/save failure when Status is
	// Failed; it is nil otherwise.
	Err error
}

// NumDetected counts detected faults.
func (r Result) NumDetected() int {
	n := 0
	for _, t := range r.DetectedAt {
		if t != sim.NotDetected {
			n++
		}
	}
	return n
}

// NumFunct counts faults detected via the flush mechanism.
func (r Result) NumFunct() int {
	n := 0
	for _, f := range r.Funct {
		if f {
			n++
		}
	}
	return n
}

// Generate runs the Section 2 procedure on sc for the given fault list
// (normally fault.Universe of sc.Scan, which includes the scan logic's
// own faults).
func Generate(sc *scan.Circuit, faults []fault.Fault, opts Options) Result {
	opts = opts.withDefaults()
	o := opts.Obs
	defer obs.T(o, "generate.time").Start()()
	cAttempts := obs.C(o, "generate.attempts")
	cSuccess := obs.C(o, "generate.attempt_success")
	cFlushDet := obs.C(o, "generate.flush_detections")
	gSeqLen := obs.G(o, "generate.seq_len")
	c := sc.ScanCircuit()
	s := sim.NewSimulator(c, opts.Workers)
	s.Observe(o)
	mgr := NewManagerSim(s, faults)
	defer mgr.Close()
	pod := combatpg.NewGenerator(c, combatpg.Options{
		ObservePPO:    true,
		MaxBacktracks: podemBacktracks,
	})
	// podFull may also assign the present state; its solutions are
	// justified through the scan chain (the paper's second use of
	// functional-level scan knowledge).
	podFull := combatpg.NewGenerator(c, combatpg.Options{
		AssignState:   true,
		ObservePPO:    true,
		MaxBacktracks: 10 * podemBacktracks,
	})
	rng := logic.NewRandFiller(opts.Seed ^ 0xA5A5A5A5)
	a := newAttempter(sc, opts, s)
	defer a.close()

	ctl := opts.Control
	params := genParams(opts, a.maxFrames)
	var seq logic.Sequence
	funct := make([]bool, len(faults))
	startPass, startFault := 0, 0
	resumed := false
	if ctl.Resuming() {
		st, ckseq, ok, err := loadGenCheckpoint(ctl, params, len(faults), c.NumInputs())
		if err != nil {
			ctl.Fail()
			return Result{DetectedAt: mgr.DetectedAt, Funct: funct, Status: runctl.Failed, Err: err}
		}
		if ok {
			resumed = true
			seq = ckseq
			// Replaying the sequence through the manager rebuilds the
			// good/faulty machine states and DetectedAt deterministically.
			mgr.AppendSequence(seq)
			for _, fi := range st.Funct {
				funct[fi] = true
			}
			rng.Restore(st.RNG)
			startPass, startFault = st.Pass, st.Fault
			if st.Done {
				startPass = opts.Passes // nothing left to do
			}
			obs.Emit(o, "generate", "resume",
				obs.F("pass", startPass), obs.F("fault", startFault), obs.F("seq_len", len(seq)))
		}
	}
	obs.Emit(o, "generate", "start",
		obs.F("faults", len(faults)), obs.F("passes", opts.Passes),
		obs.F("max_frames", a.maxFrames), obs.F("candidates", candidates))

	status := runctl.Final(resumed)
	var ckErr error
loop:
	for pass := startPass; pass < opts.Passes; pass++ {
		fi0 := 0
		if pass == startPass {
			fi0 = startFault
		}
		for fi := fi0; fi < len(faults); fi++ {
			if mgr.Detected(fi) {
				continue
			}
			if st, stop := ctl.Attempt(); stop {
				// The checkpoint names (pass, fi) as the next attempt, so
				// it must be written before the attempt runs.
				status = st
				ckErr = saveGenCheckpoint(ctl, params, len(faults), c.NumInputs(), pass, fi, seq, funct, rng, false, true)
				break loop
			}
			cAttempts.Inc()
			sub, flushStart, ok := a.attempt(faults[fi], mgr.GoodState(), mgr.FaultyState(fi), pod, podFull, rng)
			if ok {
				cSuccess.Inc()
				start := len(seq)
				seq = append(seq, sub...)
				mgr.AppendSequence(sub)
				if mgr.Detected(fi) && flushStart >= 0 && mgr.DetectedAt[fi] >= start+flushStart {
					funct[fi] = true
					cFlushDet.Inc()
				}
			}
			gSeqLen.Set(int64(len(seq)))
			if o != nil {
				o.Event("generate", "attempt",
					obs.F("pass", pass), obs.F("fault", fi), obs.F("ok", ok),
					obs.F("frames", a.frames), obs.F("flush", flushStart >= 0),
					obs.F("sub_len", len(sub)), obs.F("seq_len", len(seq)))
			}
			ckErr = saveGenCheckpoint(ctl, params, len(faults), c.NumInputs(), pass, fi+1, seq, funct, rng, false, false)
		}
	}
	if status.Done() {
		ckErr = saveGenCheckpoint(ctl, params, len(faults), c.NumInputs(), opts.Passes, 0, seq, funct, rng, true, true)
	}
	if ckErr != nil && status != runctl.Failed {
		ctl.Fail()
		status = runctl.Failed
	}
	res := Result{Sequence: seq, DetectedAt: mgr.DetectedAt, Funct: funct, Status: status, Err: ckErr}
	obs.Emit(o, "generate", "done",
		obs.F("vectors", len(seq)), obs.F("detected", res.NumDetected()),
		obs.F("funct", res.NumFunct()), obs.F("status", status.String()))
	return res
}

// attempter holds the per-attempt machinery (two simulation machines,
// drawn from the simulator's pool) reused across faults.
type attempter struct {
	sc        *scan.Circuit
	opts      Options
	maxFrames int
	sim       *sim.Simulator
	mg        *sim.Machine // fault-free
	mf        *sim.Machine // with the target fault in every slot
	// flushLen[f] caches sc.FlushLength(f); depthBonus[f] rewards
	// latched effects that are cheap to flush out.
	flushLen   []int
	depthBonus []int64

	// Observability (nil-safe): frames counts the candidate frames the
	// current attempt simulated — the per-fault effort the attempt
	// event reports.
	frames          int
	cFrames         *obs.Counter
	cPodemCalls     *obs.Counter
	cPodemBacktrack *obs.Counter
	cFlushVectors   *obs.Counter
}

func newAttempter(sc *scan.Circuit, opts Options, s *sim.Simulator) *attempter {
	a := &attempter{
		sc:        sc,
		opts:      opts,
		maxFrames: maxFrames(sc.NumStateVars()),
		sim:       s,
		mg:        s.Acquire(),
		mf:        s.Acquire(),

		cFrames:         obs.C(opts.Obs, "generate.frames"),
		cPodemCalls:     obs.C(opts.Obs, "generate.podem_calls"),
		cPodemBacktrack: obs.C(opts.Obs, "generate.podem_backtracks"),
		cFlushVectors:   obs.C(opts.Obs, "generate.flush_vectors"),
	}
	c := sc.ScanCircuit()
	nsv := sc.NumStateVars()
	a.flushLen = make([]int, c.NumFFs())
	a.depthBonus = make([]int64, c.NumFFs())
	for f := range a.flushLen {
		a.flushLen[f] = sc.FlushLength(f)
		a.depthBonus[f] = int64(500*(nsv-a.flushLen[f])) / int64(nsv)
	}
	return a
}

// close returns the attempter's machines to the simulator pool.
func (a *attempter) close() {
	a.sim.Release(a.mg)
	a.sim.Release(a.mf)
}

// attempt tries to generate a subsequence detecting f starting from the
// given good/faulty states. It returns the subsequence, the index at
// which appended scan-knowledge flush vectors start (-1 when detection
// needed none), and whether it succeeded.
func (a *attempter) attempt(f fault.Fault, goodState, faultyState []logic.Value, pod, podFull *combatpg.Generator, rng *logic.RandFiller) (logic.Sequence, int, bool) {
	inject := func(m *sim.Machine) error { return m.InjectFault(f, sim.AllSlots) }
	return a.attemptWith(f, inject, goodState, faultyState, pod, podFull, rng)
}

// attemptWith is the model-agnostic core of attempt: inject installs
// the target fault (stuck-at, transition, ...) into the faulty machine;
// the PODEM oracles may be nil for fault models PODEM does not handle.
func (a *attempter) attemptWith(f fault.Fault, inject func(*sim.Machine) error, goodState, faultyState []logic.Value, pod, podFull *combatpg.Generator, rng *logic.RandFiller) (logic.Sequence, int, bool) {
	a.mg.ClearFaults()
	a.mg.SetStateBroadcast(goodState)
	a.mf.ClearFaults()
	if err := inject(a.mf); err != nil {
		return nil, -1, false
	}
	a.mf.Reset() // clear any transition-fault history
	a.mf.SetStateBroadcast(faultyState)

	var sub logic.Sequence
	bestFFPos, bestPrefix := -1, -1

	a.frames = 0
	for frame := 0; frame < a.maxFrames; frame++ {
		a.frames++
		a.cFrames.Inc()
		cands := a.candidates(f, pod, rng)
		gSnap, fSnap := a.mg.SaveState(), a.mf.SaveState()
		a.mg.StepMulti(cands)
		a.mf.StepMulti(cands)
		slot, detected := a.pickBest(f, len(cands), rng)
		a.mg.RestoreState(gSnap)
		a.mf.RestoreState(fSnap)

		chosen := cands[slot]
		a.mg.Step(chosen)
		a.mf.Step(chosen)
		sub = append(sub, chosen)
		if detected {
			return sub, -1, true
		}
		// Track the deepest chain position holding a latched effect
		// (larger index = nearer scan_out = shorter flush).
		if pos := a.deepestLatchedEffect(); pos > bestFFPos {
			bestFFPos, bestPrefix = pos, len(sub)
		}
	}

	if a.opts.DisableScanKnowledge {
		return nil, -1, false
	}
	// First use of functional-level scan knowledge: an effect reached
	// flip-flop bestFFPos during the forward search; flush it out.
	if bestFFPos >= 0 {
		if seq, flushStart, ok := a.withFlush(goodState, faultyState, sub[:bestPrefix], rng); ok {
			return seq, flushStart, true
		}
	}
	// Second use: justify an arbitrary activation state through the
	// scan chain. PODEM with full state controllability finds (s, v);
	// the chain loads s in NSV shifts, then v is applied.
	if podFull == nil {
		return nil, -1, false
	}
	return a.justifyAttempt(f, goodState, faultyState, podFull, rng)
}

// withFlush appends flush vectors for the deepest latched effect of the
// prefix plus one observation vector, and verifies detection.
func (a *attempter) withFlush(goodState, faultyState []logic.Value, prefix logic.Sequence, rng *logic.RandFiller) (logic.Sequence, int, bool) {
	c := a.sc.ScanCircuit()
	// Re-simulate the prefix to find the latched effect position at
	// its end (the caller truncated to the best prefix).
	a.mg.SetStateBroadcast(goodState)
	a.mf.Reset() // transition-fault history restarts with the replay
	a.mf.SetStateBroadcast(faultyState)
	for _, v := range prefix {
		a.mg.Step(v)
		a.mf.Step(v)
	}
	pos := a.deepestLatchedEffect()
	if pos < 0 {
		return nil, -1, false
	}
	seq := append(logic.Sequence{}, prefix...)
	flushStart := len(seq)
	fv := a.sc.FlushVectors(pos)
	a.cFlushVectors.Add(int64(len(fv)))
	for _, v := range fv {
		w := v.Clone()
		w.FillX(rng)
		seq = append(seq, w)
	}
	obs := logic.NewVector(c.NumInputs())
	obs[a.sc.SelPI] = logic.Zero
	obs.FillX(rng)
	seq = append(seq, obs)

	det := a.simulateDetect(goodState, faultyState, seq)
	if det < 0 {
		return nil, -1, false
	}
	return seq[:det+1], flushStart, true
}

// justifyAttempt finds a single-frame test (state, vector) with PODEM,
// loads the state through the scan chain, applies the vector, and — if
// the detection was at a flip-flop rather than a primary output —
// flushes the latched effect to scan_out.
func (a *attempter) justifyAttempt(f fault.Fault, goodState, faultyState []logic.Value, podFull *combatpg.Generator, rng *logic.RandFiller) (logic.Sequence, int, bool) {
	r := podFull.Generate(f)
	a.cPodemCalls.Inc()
	a.cPodemBacktrack.Add(int64(r.Backtracks))
	if r.Status != combatpg.Success {
		return nil, -1, false
	}
	r.State.FillX(rng)
	r.Vector.FillX(rng)
	scanin, err := a.sc.ScanInSequence(r.State)
	if err != nil {
		return nil, -1, false
	}
	seq := make(logic.Sequence, 0, len(scanin)+2+a.sc.NumStateVars())
	for _, v := range scanin {
		w := v.Clone()
		w.FillX(rng)
		seq = append(seq, w)
	}
	seq = append(seq, r.Vector)

	// The frame may already expose the fault on a primary output.
	if det := a.simulateDetect(goodState, faultyState, seq); det >= 0 {
		return seq[:det+1], -1, true
	}
	// Otherwise the effect (if any) is latched; flush it.
	return a.withFlush(goodState, faultyState, seq, rng)
}

// simulateDetect re-simulates seq from the given start states and
// returns the first vector index with a definite discrepancy on a
// primary output, or -1. The rule matches the Manager's.
func (a *attempter) simulateDetect(goodState, faultyState []logic.Value, seq logic.Sequence) int {
	c := a.sc.ScanCircuit()
	a.mg.SetStateBroadcast(goodState)
	a.mf.Reset() // transition-fault history restarts with the replay
	a.mf.SetStateBroadcast(faultyState)
	for t, v := range seq {
		a.mg.Step(v)
		a.mf.Step(v)
		for po := 0; po < c.NumOutputs(); po++ {
			gz, gd := a.mg.OutputPlanes(po)
			fz, fd := a.mf.OutputPlanes(po)
			if sim.DetectMask(gz, gd, fz, fd)&1 != 0 {
				return t
			}
		}
	}
	return -1
}

// candidates builds the per-frame candidate pool: the PODEM suggestion
// (when one exists) followed by random binary vectors.
func (a *attempter) candidates(f fault.Fault, pod *combatpg.Generator, rng *logic.RandFiller) []logic.Vector {
	c := a.sc.ScanCircuit()
	var cands []logic.Vector
	if pod != nil {
		pod.SetStates(a.mg.StateSlot(0), a.mf.StateSlot(0))
		r := pod.Generate(f)
		a.cPodemCalls.Inc()
		a.cPodemBacktrack.Add(int64(r.Backtracks))
		if r.Status == combatpg.Success {
			v := r.Vector
			v.FillX(rng)
			cands = append(cands, v)
		}
	}
	for len(cands) < candidates {
		v := make(logic.Vector, c.NumInputs())
		for i := range v {
			v[i] = rng.Next()
		}
		cands = append(cands, v)
	}
	return cands
}

// pickBest scores every candidate slot after a StepMulti on both
// machines and returns the best slot and whether it detects the fault
// at a primary output.
func (a *attempter) pickBest(f fault.Fault, n int, rng *logic.RandFiller) (int, bool) {
	c := a.sc.ScanCircuit()
	var detect uint64
	for po := 0; po < c.NumOutputs(); po++ {
		gz, gd := a.mg.OutputPlanes(po)
		fz, fd := a.mf.OutputPlanes(po)
		detect |= sim.DetectMask(gz, gd, fz, fd)
	}
	nMask := sim.AllSlots
	if n < sim.Slots {
		nMask = (uint64(1) << uint(n)) - 1
	}
	if d := detect & nMask; d != 0 {
		return bits.TrailingZeros64(d), true
	}

	scores := make([]int64, n)
	// Latched effects in the scan chain, weighted by count and depth.
	for fi := 0; fi < c.NumFFs(); fi++ {
		gz, gd := a.mg.FFPlanes(fi)
		fz, fd := a.mf.FFPlanes(fi)
		em := sim.DetectMask(gz, gd, fz, fd) & nMask
		for m := em; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			scores[k] += 10000 + a.depthBonus[fi]
		}
	}
	// Excitation: effects anywhere in the combinational logic.
	for s := range c.Signals {
		sig := netlist.SignalID(s)
		gz, gd := a.mg.SignalPlanes(sig)
		fz, fd := a.mf.SignalPlanes(sig)
		em := sim.DetectMask(gz, gd, fz, fd) & nMask
		for m := em; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			if scores[k] < 10000 { // cap below the latched-effect band
				scores[k] += 20
			}
		}
		if f.Site.Signal == sig {
			// Small extra reward for exciting the target site.
			for m := em; m != 0; m &= m - 1 {
				scores[bits.TrailingZeros64(m)] += 50
			}
		}
	}
	// State initialization: binary fault-free flip-flop values.
	for fi := 0; fi < c.NumFFs(); fi++ {
		gz, gd := a.mg.FFPlanes(fi)
		known := (gz ^ gd) & nMask // exactly one plane set = binary
		for m := known; m != 0; m &= m - 1 {
			scores[bits.TrailingZeros64(m)]++
		}
	}
	best, bestScore := 0, int64(-1)
	for k := 0; k < n; k++ {
		// Deterministic jitter breaks ties without biasing slot 0.
		s := scores[k]*8 + int64(rng.Intn(8))
		if s > bestScore {
			bestScore = s
			best = k
		}
	}
	return best, false
}

// deepestLatchedEffect returns the largest chain position whose flip-
// flop holds a definite fault effect in slot 0 of the current states,
// or -1.
func (a *attempter) deepestLatchedEffect() int {
	c := a.sc.ScanCircuit()
	for fi := c.NumFFs() - 1; fi >= 0; fi-- {
		gz, gd := a.mg.FFPlanes(fi)
		fz, fd := a.mf.FFPlanes(fi)
		if sim.DetectMask(gz, gd, fz, fd)&1 != 0 {
			return fi
		}
	}
	return -1
}
