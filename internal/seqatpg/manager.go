package seqatpg

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// minParallelBatches is the smallest number of fault batches for which
// Append fans stepping out across workers; below it the goroutine
// hand-off costs more than the stepping.
const minParallelBatches = 8

// faultBatch carries up to 64 faults through the growing test sequence
// in one bit-parallel machine, so appending a vector costs a single
// simulation step per batch instead of a re-simulation of the whole
// sequence.
type faultBatch struct {
	m     *sim.Machine
	idx   []int  // global index of the fault in each slot, ascending
	alive uint64 // slots not yet detected
	newly []int  // per-Append scratch: indices detected this vector
}

// injector adds fault i of the manager's fault list to the slots of m
// selected by mask.
type injector func(m *sim.Machine, i int, mask uint64) error

// Manager tracks the good circuit state and every undetected fault's
// faulty state as the test sequence grows vector by vector. Detected
// faults are dropped: whenever the undetected faults fit in fewer
// batches than the manager holds, Append first repacks them, in
// ascending fault order, into as few batches as hold them.
type Manager struct {
	sim     *sim.Simulator
	good    *sim.Machine
	inject  injector
	batches []*faultBatch
	free    []*faultBatch // records repack emptied, reused by add
	at      []int32       // per fault: batch*sim.Slots + slot, where it sits
	live    int           // undetected faults
	cSteps  *obs.Counter

	// DetectedAt[i] is the vector index detecting fault i, or -1.
	DetectedAt []int
	now        int // number of vectors appended so far
}

// NewManager builds a Manager over the full fault list with the
// sequence empty and every flip-flop at X, using a private single-
// worker simulator.
func NewManager(c *netlist.Circuit, faults []fault.Fault) *Manager {
	return NewManagerSim(sim.NewSimulator(c, 1), faults)
}

// NewManagerSim is NewManager drawing machines from (and stepping fault
// batches across the workers of) an existing simulator. Call Close when
// the manager is no longer needed to return its machines to the pool.
func NewManagerSim(s *sim.Simulator, faults []fault.Fault) *Manager {
	return newManager(s, len(faults), func(m *sim.Machine, i int, mask uint64) error {
		return m.InjectFault(faults[i], mask)
	})
}

// newManager builds a Manager over n faults of any model, each loaded
// into its slot by inject.
func newManager(s *sim.Simulator, n int, inject injector) *Manager {
	mgr := &Manager{
		sim:        s,
		good:       s.Acquire(),
		inject:     inject,
		at:         make([]int32, n),
		live:       n,
		DetectedAt: make([]int, n),
	}
	for i := range mgr.DetectedAt {
		mgr.DetectedAt[i] = sim.NotDetected
		mgr.add(i)
	}
	return mgr
}

// Observe counts the manager's batch-vector steps on o as
// generate.batch_steps, on the goroutine that calls Append.
func (mgr *Manager) Observe(o obs.Observer) { mgr.cSteps = obs.C(o, "generate.batch_steps") }

// Close returns the manager's machines to the simulator pool. The
// manager must not be used afterwards; DetectedAt stays valid.
func (mgr *Manager) Close() {
	mgr.sim.Release(mgr.good)
	for _, b := range mgr.batches {
		mgr.sim.Release(b.m)
	}
	mgr.batches = nil
}

// Len returns the number of vectors appended so far.
func (mgr *Manager) Len() int { return mgr.now }

// GoodState returns the fault-free state after the appended sequence.
func (mgr *Manager) GoodState() []logic.Value { return mgr.good.StateSlot(0) }

// NumDetected counts detected faults.
func (mgr *Manager) NumDetected() int { return len(mgr.DetectedAt) - mgr.live }

// Detected reports whether fault i has been detected.
func (mgr *Manager) Detected(i int) bool { return mgr.DetectedAt[i] != sim.NotDetected }

// FaultyState returns the faulty-circuit state of undetected fault i
// after the appended sequence. A detected fault has been dropped, and
// its slot goes to another fault at the next repack, so it has no state
// left: FaultyState panics for one.
func (mgr *Manager) FaultyState(i int) []logic.Value {
	if mgr.Detected(i) {
		panic("seqatpg: FaultyState of a detected fault")
	}
	b, slot := mgr.locate(i)
	return b.m.StateSlot(slot)
}

func (mgr *Manager) locate(i int) (*faultBatch, int) {
	at := int(mgr.at[i])
	return mgr.batches[at/sim.Slots], at % sim.Slots
}

// add puts fault i into the next free slot, opening a batch when the
// last one is full, and returns the machine and slot it took.
func (mgr *Manager) add(i int) (*sim.Machine, int) {
	n := len(mgr.batches)
	if n == 0 || len(mgr.batches[n-1].idx) == sim.Slots {
		var b *faultBatch
		if k := len(mgr.free); k > 0 {
			b, mgr.free = mgr.free[k-1], mgr.free[:k-1]
		} else {
			b = &faultBatch{idx: make([]int, 0, sim.Slots)}
		}
		b.m = mgr.sim.Acquire()
		mgr.batches = append(mgr.batches, b)
		n++
	}
	b := mgr.batches[n-1]
	slot := len(b.idx)
	b.idx = append(b.idx, i)
	b.alive |= 1 << uint(slot)
	mgr.at[i] = int32((n-1)*sim.Slots + slot)
	if err := mgr.inject(b.m, i, 1<<uint(slot)); err != nil {
		panic(err) // a site inconsistent with the circuit; fault lists never hold one
	}
	return b.m, slot
}

// repack moves the undetected faults, in ascending fault order, into
// as few batches as hold them. Each keeps its exact faulty state
// (CopySlot carries the flip-flop planes and the transition history),
// and each old machine goes back to the pool once its faults have
// moved, so a repack holds at most one machine more than before it.
// An emptied record goes on the free list for add to reuse.
func (mgr *Manager) repack() {
	old := mgr.batches
	mgr.batches = make([]*faultBatch, 0, (mgr.live+sim.Slots-1)/sim.Slots)
	for _, ob := range old {
		for a := ob.alive; a != 0; a &= a - 1 {
			k := bits.TrailingZeros64(a)
			m, slot := mgr.add(ob.idx[k])
			m.CopySlot(slot, ob.m, k)
		}
		mgr.sim.Release(ob.m)
		*ob = faultBatch{idx: ob.idx[:0]}
		mgr.free = append(mgr.free, ob)
	}
}

// Append applies one vector to the good machine and every batch,
// recording new detections at the current time index. It returns the
// global indices of newly detected faults in ascending order. Batches
// step concurrently when the simulator has spare workers; detections
// are reassembled in batch order, so the result is identical to serial
// stepping.
func (mgr *Manager) Append(v logic.Vector) []int {
	if len(mgr.batches) > (mgr.live+sim.Slots-1)/sim.Slots {
		mgr.repack()
	}
	mgr.good.Step(v)
	goodVals := mgr.good.OutputRow()
	workers := mgr.sim.Workers()
	if len(mgr.batches) < minParallelBatches {
		workers = 1
	}
	sim.Parallel(workers, len(mgr.batches), func(_, bi int) bool {
		b := mgr.batches[bi]
		b.newly = mgr.stepBatch(b, v, goodVals)
		return true
	})
	mgr.cSteps.Add(int64(len(mgr.batches)))
	var newly []int
	for _, b := range mgr.batches {
		newly = append(newly, b.newly...)
		b.newly = nil
	}
	mgr.live -= len(newly)
	mgr.now++
	return newly
}

// stepBatch advances one batch by v and records its new detections,
// returning their global indices. Every batch holds a live fault when
// it steps: a batch whose faults are all detected makes the next Append
// repack, which drops it. DetectedAt writes are disjoint across
// batches, so stepBatch may run concurrently for different batches.
func (mgr *Manager) stepBatch(b *faultBatch, v logic.Vector, goodVals []logic.Value) []int {
	b.m.Step(v)
	det := b.m.OutputDiff(goodVals) & b.alive
	if det == 0 {
		return nil
	}
	b.alive &^= det
	var newly []int
	for ; det != 0; det &= det - 1 {
		gi := b.idx[bits.TrailingZeros64(det)]
		mgr.DetectedAt[gi] = mgr.now
		newly = append(newly, gi)
	}
	return newly
}

// AppendSequence appends every vector of seq in order and returns all
// newly detected fault indices.
func (mgr *Manager) AppendSequence(seq logic.Sequence) []int {
	var newly []int
	for _, v := range seq {
		newly = append(newly, mgr.Append(v)...)
	}
	return newly
}
