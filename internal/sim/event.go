// Event-driven fault-cone simulation kernel.
//
// The kernel exploits the single-fault-batch structure of Run: a batch
// of up to 64 stuck-at faults diverges from the fault-free circuit only
// inside the (sequentially closed) output cones of its injection sites.
// Instead of re-evaluating every gate every cycle, the kernel
//
//  1. reads the fault-free value of every signal from a compact image
//     the shared good trace caches once per vector,
//  2. re-evaluates only gates on a levelized dirty queue seeded from
//     active injection sites and diverged flip-flops — a gate is
//     enqueued only when a re-evaluated input's planes actually
//     changed, and
//  3. fast-forwards over "dead" cycles — when no flip-flop state
//     differs from the fault-free state and no injection site is
//     activated by the cycle's fault-free values, the whole cycle is
//     skipped with zero gate evaluations (the dominant case on
//     scan-shift-heavy C_scan sequences simulated a few faults at a
//     time, the shape of every compaction trial).
//
// Event evaluation costs more per gate than the straight-line full
// sweep (epoch checks, change detection, queue maintenance), so a batch
// whose dirty region persistently covers a large fraction of the
// circuit — typical for full 64-fault batches on chain-connected scan
// circuits — is handed off mid-sequence to the full-evaluation path
// (see the hand-off in runBatchEvent). The decision uses only per-batch
// deterministic state, so results and step accounting stay independent
// of worker count.
//
// Detection results are bit-identical to the full-evaluation oracle
// (Machine.eval): a gate not on the queue has all inputs equal to
// their fault-free values and no active injection, hence a fault-free
// output, by induction over the levelized evaluation order.
package sim

import (
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// eventScratch is the per-machine state of the event kernel, reused
// across batches and Run calls.
type eventScratch struct {
	// Per-cycle signal values: cz/co hold a signal's planes for the
	// current cycle — the faulty planes if the signal diverged, the
	// broadcast fault-free value otherwise — valid iff curEpoch matches
	// the cycle epoch. dirtyEpoch additionally marks divergence;
	// gateEpoch deduplicates queue insertions.
	cz, co     []uint64
	curEpoch   []int32
	dirtyEpoch []int32
	gateEpoch  []int32
	epoch      int32
	// buckets is the levelized dirty queue (indexed by gate level);
	// minLv/maxLv bound the occupied range of the current cycle.
	buckets      [][]int32
	minLv, maxLv int32

	// Per-batch structure, rebuilt by prepareEvent.
	reach     netlist.Reach
	sites     []netlist.SignalID // scratch: injection-site signals
	seedFFs   []int32            // scratch: FFs with D-pin faults
	stemIns   []netlist.SignalID // primary inputs carrying stem faults
	seedGates []int32            // gates with pin faults or output-stem faults
	latch     []int32            // FFs whose state can diverge (reach.FFs)
	inLatch   []bool             // membership in latch, for qOnly construction
	qOnly     []int32            // FFs with Q-stem faults outside latch
	act0      []netlist.SignalID // site signals of SA0 faults (active when value can be 1)
	act1      []netlist.SignalID // site signals of SA1 faults (active when value can be 0)
	act0Mask  []uint64           // slot masks parallel to act0
	act1Mask  []uint64           // slot masks parallel to act1

	// Current-cycle image (borrowed from the good trace).
	img  []uint64
	sigW int
	ffW  int
}

// evScratch returns the machine's event scratch, allocating it on first
// use.
func (m *Machine) evScratch() *eventScratch {
	if m.ev == nil {
		c := m.c
		maxLevel := int32(0)
		for _, l := range c.Level {
			if l > maxLevel {
				maxLevel = l
			}
		}
		m.ev = &eventScratch{
			cz:         make([]uint64, len(c.Signals)),
			co:         make([]uint64, len(c.Signals)),
			curEpoch:   make([]int32, len(c.Signals)),
			dirtyEpoch: make([]int32, len(c.Signals)),
			gateEpoch:  make([]int32, len(c.Gates)),
			buckets:    make([][]int32, maxLevel+1),
			inLatch:    make([]bool, len(c.FFs)),
		}
	}
	return m.ev
}

// prepareEvent derives the batch's static structure from the machine's
// injected faults: the sequential reach (which gates, flip-flops and
// primary outputs the batch can ever influence), the per-cycle seed
// lists, and the site-activity lists driving dead-cycle skipping. The
// machine's faults must have been injected in slot order (fault k in
// slot k), as runBatchEvent does.
func (m *Machine) prepareEvent() *eventScratch {
	ev := m.evScratch()
	c := m.c
	ev.sites = ev.sites[:0]
	ev.seedFFs = ev.seedFFs[:0]
	ev.stemIns = ev.stemIns[:0]
	ev.seedGates = ev.seedGates[:0]
	ev.qOnly = ev.qOnly[:0]
	ev.act0 = ev.act0[:0]
	ev.act1 = ev.act1[:0]
	ev.act0Mask = ev.act0Mask[:0]
	ev.act1Mask = ev.act1Mask[:0]
	for k, f := range m.injected {
		site := f.Site
		ev.sites = append(ev.sites, site.Signal)
		if f.SA == logic.Zero {
			ev.act0 = append(ev.act0, site.Signal)
			ev.act0Mask = append(ev.act0Mask, uint64(1)<<uint(k))
		} else {
			ev.act1 = append(ev.act1, site.Signal)
			ev.act1Mask = append(ev.act1Mask, uint64(1)<<uint(k))
		}
		switch {
		case site.FF >= 0:
			ev.seedFFs = append(ev.seedFFs, site.FF)
		case !site.IsStem():
			ev.seedGates = append(ev.seedGates, site.Gate)
		default:
			switch c.Signals[site.Signal].Kind {
			case netlist.KindInput:
				ev.stemIns = append(ev.stemIns, site.Signal)
			case netlist.KindGate:
				ev.seedGates = append(ev.seedGates, c.Signals[site.Signal].Driver)
			}
			// KindFF stems are handled through latch/qOnly below.
		}
	}
	c.SequentialReach(ev.sites, ev.seedFFs, &ev.reach)
	ev.latch = ev.reach.FFs
	for _, fi := range ev.latch {
		ev.inLatch[fi] = true
	}
	// Flip-flops whose Q carries a stem fault but whose state cannot
	// diverge: their faulty Q is the injected fault-free state.
	for _, f := range m.injected {
		site := f.Site
		if site.IsStem() && c.Signals[site.Signal].Kind == netlist.KindFF {
			fi := c.Signals[site.Signal].Driver
			if !ev.inLatch[fi] {
				ev.inLatch[fi] = true // also dedupes repeated Q faults
				ev.qOnly = append(ev.qOnly, fi)
			}
		}
	}
	for _, fi := range ev.latch {
		ev.inLatch[fi] = false
	}
	for _, fi := range ev.qOnly {
		ev.inLatch[fi] = false
	}
	return ev
}

// imgPlanes expands the image's two bits for signal s into broadcast
// planes (every slot carries the fault-free value).
func (ev *eventScratch) imgPlanes(s netlist.SignalID) (z, o uint64) {
	w, b := int(s)>>6, uint(s)&63
	z = -(ev.img[w] >> b & 1)
	o = -(ev.img[ev.sigW+w] >> b & 1)
	return z, o
}

// imgFFPlanes expands the image's post-vector state bits for flip-flop
// fi into broadcast planes.
func (ev *eventScratch) imgFFPlanes(fi int32) (z, o uint64) {
	base := 2 * ev.sigW
	w, b := int(fi)>>6, uint(fi)&63
	z = -(ev.img[base+w] >> b & 1)
	o = -(ev.img[base+ev.ffW+w] >> b & 1)
	return z, o
}

// anyActive reports whether any injection site of a still-undetected
// fault (care has its slot bit set) is activated by the cycle's
// fault-free values: a stuck-at-0 site whose value can be 1, or a
// stuck-at-1 site whose value can be 0 (X counts as both — forcing a
// binary value onto an X plane changes it). Sites of already-detected
// faults are ignored: their slots never produce another reportable
// detection, so letting their values drift from the true faulty values
// is harmless (all plane operations are per-slot independent).
func (ev *eventScratch) anyActive(img []uint64, sigW int, care uint64) bool {
	for i, s := range ev.act0 {
		if ev.act0Mask[i]&care != 0 && img[sigW+int(s)>>6]>>(uint(s)&63)&1 != 0 {
			return true
		}
	}
	for i, s := range ev.act1 {
		if ev.act1Mask[i]&care != 0 && img[int(s)>>6]>>(uint(s)&63)&1 != 0 {
			return true
		}
	}
	return false
}

// evEnqueue puts gate gi on the current cycle's dirty queue once.
func (m *Machine) evEnqueue(gi int32) {
	ev := m.ev
	if ev.gateEpoch[gi] == ev.epoch {
		return
	}
	ev.gateEpoch[gi] = ev.epoch
	lv := m.c.Level[gi]
	ev.buckets[lv] = append(ev.buckets[lv], gi)
	if lv < ev.minLv {
		ev.minLv = lv
	}
	if lv > ev.maxLv {
		ev.maxLv = lv
	}
}

// evDirty records signal s as diverged from the fault-free image this
// cycle and enqueues its fanout gates.
func (m *Machine) evDirty(s netlist.SignalID, z, o uint64) {
	ev := m.ev
	ev.cz[s], ev.co[s] = z, o
	ev.curEpoch[s] = ev.epoch
	ev.dirtyEpoch[s] = ev.epoch
	for _, gi := range m.c.FanoutGates(s) {
		m.evEnqueue(gi)
	}
}

// evRead returns the planes of signal s this cycle: the diverged planes
// if s is dirty, the broadcast fault-free value otherwise. The
// extracted value is cached in cz/co so repeated readers pay one load.
func (m *Machine) evRead(s netlist.SignalID) (z, o uint64) {
	ev := m.ev
	if ev.curEpoch[s] == ev.epoch {
		return ev.cz[s], ev.co[s]
	}
	z, o = ev.imgPlanes(s)
	ev.cz[s], ev.co[s] = z, o
	ev.curEpoch[s] = ev.epoch
	return z, o
}

// evReadPin is evRead plus the pin's stuck-at injection masks.
func (m *Machine) evReadPin(s netlist.SignalID, pin int32) (z, o uint64) {
	z, o = m.evRead(s)
	return applyInj(z, o, m.pinSA0[pin], m.pinSA1[pin])
}

// eventCycle simulates one vector of the batch against the fault-free
// image img (the image of that same vector): seeds the dirty queue from
// injection sites and diverged flip-flops, drains it in level order,
// latches the next faulty state, and reports whether any flip-flop's
// next state diverges from the fault-free next state in a slot of care
// (the still-undetected faults), plus how many gates were re-evaluated.
// On return, dirty primary outputs are identified by dirtyEpoch stamps
// (see detection in runBatchEvent).
func (m *Machine) eventCycle(img []uint64, sigW, ffW int, care uint64) (diverged bool, drained int) {
	ev := m.ev
	c := m.c
	if ev.epoch == 1<<31-1 {
		// Epoch wrap (practically unreachable): invalidate all stamps.
		for i := range ev.curEpoch {
			ev.curEpoch[i] = 0
			ev.dirtyEpoch[i] = 0
		}
		for i := range ev.gateEpoch {
			ev.gateEpoch[i] = 0
		}
		ev.epoch = 0
	}
	ev.epoch++
	ev.img, ev.sigW, ev.ffW = img, sigW, ffW
	ev.minLv = int32(len(ev.buckets))
	ev.maxLv = 0

	// Seed 1: primary inputs carrying stem faults.
	for _, in := range ev.stemIns {
		gz, gd := ev.imgPlanes(in)
		z, o := applyInj(gz, gd, m.stemSA0[in], m.stemSA1[in])
		if z != gz || o != gd {
			m.evDirty(in, z, o)
		}
	}
	// Seed 2: flip-flop outputs — diverged state and/or Q stem faults.
	for _, fi := range ev.latch {
		q := c.FFs[fi].Q
		z, o := applyInj(m.sz[fi], m.so[fi], m.stemSA0[q], m.stemSA1[q])
		gz, gd := ev.imgPlanes(q)
		if z != gz || o != gd {
			m.evDirty(q, z, o)
		}
	}
	for _, fi := range ev.qOnly {
		q := c.FFs[fi].Q
		gz, gd := ev.imgPlanes(q)
		z, o := applyInj(gz, gd, m.stemSA0[q], m.stemSA1[q])
		if z != gz || o != gd {
			m.evDirty(q, z, o)
		}
	}
	// Seed 3: gates carrying pin faults or output-stem faults.
	for _, gi := range ev.seedGates {
		m.evEnqueue(gi)
	}

	// Drain the queue in level order; enqueues always target strictly
	// higher levels, so each bucket is complete when reached.
	for lv := ev.minLv; lv <= ev.maxLv; lv++ {
		bucket := ev.buckets[lv]
		ev.buckets[lv] = bucket[:0]
		drained += len(bucket)
		for _, gi := range bucket {
			g := &c.Gates[gi]
			base := m.pinBase[gi]
			z, o := m.evReadPin(g.In[0], base)
			switch g.Type {
			case netlist.BUF:
			case netlist.NOT:
				z, o = o, z
			case netlist.AND, netlist.NAND:
				for p := 1; p < len(g.In); p++ {
					bz, bo := m.evReadPin(g.In[p], base+int32(p))
					z |= bz
					o &= bo
				}
				if g.Type == netlist.NAND {
					z, o = o, z
				}
			case netlist.OR, netlist.NOR:
				for p := 1; p < len(g.In); p++ {
					bz, bo := m.evReadPin(g.In[p], base+int32(p))
					o |= bo
					z &= bz
				}
				if g.Type == netlist.NOR {
					z, o = o, z
				}
			case netlist.XOR, netlist.XNOR:
				for p := 1; p < len(g.In); p++ {
					bz, bo := m.evReadPin(g.In[p], base+int32(p))
					z, o = (z&bz)|(o&bo), (z&bo)|(o&bz)
				}
				if g.Type == netlist.XNOR {
					z, o = o, z
				}
			}
			z, o = applyInj(z, o, m.stemSA0[g.Out], m.stemSA1[g.Out])
			gz, gd := ev.imgPlanes(g.Out)
			if z != gz || o != gd {
				m.evDirty(g.Out, z, o)
			} else {
				// Cache the (fault-free) result so downstream readers
				// skip the image extraction.
				ev.cz[g.Out], ev.co[g.Out] = z, o
				ev.curEpoch[g.Out] = ev.epoch
			}
		}
	}

	// Latch the next faulty state of every reachable flip-flop and
	// compare against the fault-free next state.
	for _, fi := range ev.latch {
		z, o := m.evRead(c.FFs[fi].D)
		z, o = applyInj(z, o, m.ffSA0[fi], m.ffSA1[fi])
		m.sz[fi], m.so[fi] = z, o
		gz, gd := ev.imgFFPlanes(fi)
		if ((z^gz)|(o^gd))&care != 0 {
			diverged = true
		}
	}
	return diverged, drained
}

// Handoff economics: a full-evaluation cycle costs ~nGates gate
// evaluations and cannot skip; an event cycle costs ~drained gate
// evaluations at eventGateCost× the per-gate price (epoch checks,
// change detection, queue maintenance) and skipped cycles are free. The
// batch is handed to the full path once
//
//	drainedSum · eventGateCost  >  nGates · (steps + skipped)
//
// i.e. once the event kernel has spent more than the full sweep would
// have over the same elapsed cycles (after eventHandoffWarmup executed
// cycles). Heavy skippers — the compaction trial shape — grow the
// right-hand side for free and stay on the event path; wide 64-fault
// batches on chain-connected scan circuits trip the trigger at warmup.
// eventGateCost is the empirical per-gate price ratio (×2 over the
// measured ~2 to bias toward the deterministic sweep near break-even).
const (
	eventGateCost      = 5 // numerator ×2: ratio ≈ 2.5
	eventGateCostHalf  = 2 // denominator ×2
	eventHandoffWarmup = 4
)

// runBatchEvent simulates the 64-fault batch starting at fault index
// start through seq with the event-driven kernel, recording first
// detections into out. It returns the number of batch steps actually
// evaluated and the number of dead cycles fast-forwarded. Detection
// results are bit-identical to runBatch's full-evaluation path; batches
// whose dirty region persistently covers a large fraction of the
// circuit are handed off to that path mid-sequence.
func (s *Simulator) runBatchEvent(m *Machine, tr *goodTrace, seq logic.Sequence, faults []fault.Fault, start int, out []int) (steps, skipped int64) {
	c := s.c
	n := startBatch(m, faults, start)
	ev := m.prepareEvent()
	sigW, ffW := tr.sigW, tr.ffW
	allMask := AllSlots
	if n < Slots {
		allMask = (uint64(1) << uint(n)) - 1
	}
	var detected uint64
	var drainedSum int64
	// clean: the faulty flip-flop state equals the fault-free state in
	// every still-undetected slot. Detected slots are written off — see
	// anyActive.
	clean := true
	stale := false
	for t := 0; t < len(seq); t++ {
		img := tr.image(t)
		if clean && !ev.anyActive(img, sigW, allMask&^detected) {
			// Fault effect dead and no site activated: the faulty
			// circuit tracks the fault-free one through this whole
			// cycle. Skip it without evaluating a single gate.
			skipped++
			stale = true
			continue
		}
		if stale {
			// Rematerialize the latched state from the fault-free
			// image of the previous vector (equal by cleanliness).
			prev := tr.image(t - 1)
			base := 2 * sigW
			for _, fi := range ev.latch {
				w, b := int(fi)>>6, uint(fi)&63
				m.sz[fi] = -(prev[base+w] >> b & 1)
				m.so[fi] = -(prev[base+ffW+w] >> b & 1)
			}
			stale = false
		}
		diverged, drained := m.eventCycle(img, sigW, ffW, allMask&^detected)
		clean = !diverged
		steps++
		drainedSum += int64(drained)
		var newly uint64
		for _, oi := range ev.reach.POs {
			sid := c.Outputs[oi]
			if ev.dirtyEpoch[sid] != ev.epoch {
				continue // primary output tracks the fault-free value
			}
			gz, gd := ev.imgPlanes(sid)
			newly |= DetectMask(gz, gd, ev.cz[sid], ev.co[sid])
		}
		newly &= allMask &^ detected
		if newly != 0 {
			detected |= newly
			for k := 0; k < n; k++ {
				if newly&(uint64(1)<<uint(k)) != 0 {
					out[start+k] = t
				}
			}
			if detected == allMask {
				break
			}
		}
		// Wide batch: the dirty region persistently covers a large
		// fraction of the circuit (typical for full 64-fault batches on
		// chain-connected scan circuits), so queue maintenance costs
		// more than it saves. Hand the rest of the sequence to the
		// full-evaluation sweep. The trigger depends only on per-batch
		// state, keeping results and accounting worker-independent.
		if steps >= eventHandoffWarmup &&
			drainedSum*eventGateCost > int64(len(c.Gates))*(steps+skipped)*eventGateCostHalf {
			// Event cycles maintain only the reachable flip-flops'
			// state; the rest tracks the fault-free machine, whose
			// post-vector state the image carries.
			m.materializeState(img, sigW, ffW)
			fullSteps := s.runFullTail(m, tr, seq, t+1, n, start, detected, out)
			return steps + fullSteps, skipped
		}
	}
	return steps, skipped
}

// materializeState fills the state planes of every flip-flop the event
// kernel did not maintain (those outside the batch's reach) from the
// image's post-vector state, producing a state consistent with full
// evaluation.
func (m *Machine) materializeState(img []uint64, sigW, ffW int) {
	ev := m.ev
	for _, fi := range ev.latch {
		ev.inLatch[fi] = true
	}
	base := 2 * sigW
	for fi := range m.sz {
		if ev.inLatch[fi] {
			continue
		}
		w, b := fi>>6, uint(fi)&63
		m.sz[fi] = -(img[base+w] >> b & 1)
		m.so[fi] = -(img[base+ffW+w] >> b & 1)
	}
	for _, fi := range ev.latch {
		ev.inLatch[fi] = false
	}
}
