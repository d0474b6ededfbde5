package seqatpg

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
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
	lo    int    // global index of the fault in slot 0
	alive uint64 // slots not yet detected
	newly []int  // per-Append scratch: indices detected this vector
}

// Manager tracks the good circuit state and every undetected fault's
// faulty state as the test sequence grows vector by vector.
type Manager struct {
	sim     *sim.Simulator
	good    *sim.Machine
	batches []*faultBatch

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
	return newManager(s, len(faults), func(m *sim.Machine, lo, hi int) { m.InjectBatch(faults[lo:hi]) })
}

// newManager builds a Manager over n faults of any model: inject loads
// faults [lo, hi) into a fresh machine, fault lo+k in slot k.
func newManager(s *sim.Simulator, n int, inject func(m *sim.Machine, lo, hi int)) *Manager {
	mgr := &Manager{
		sim:        s,
		good:       s.Acquire(),
		DetectedAt: make([]int, n),
	}
	for i := range mgr.DetectedAt {
		mgr.DetectedAt[i] = sim.NotDetected
	}
	for lo := 0; lo < n; lo += sim.Slots {
		hi := min(lo+sim.Slots, n)
		b := &faultBatch{m: s.Acquire(), lo: lo, alive: sim.AllSlots >> uint(sim.Slots-(hi-lo))}
		inject(b.m, lo, hi)
		mgr.batches = append(mgr.batches, b)
	}
	return mgr
}

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
func (mgr *Manager) NumDetected() int {
	n := 0
	for _, t := range mgr.DetectedAt {
		if t != sim.NotDetected {
			n++
		}
	}
	return n
}

// Detected reports whether fault i has been detected.
func (mgr *Manager) Detected(i int) bool { return mgr.DetectedAt[i] != sim.NotDetected }

// FaultyState returns the faulty-circuit state of fault i after the
// appended sequence.
func (mgr *Manager) FaultyState(i int) []logic.Value {
	b, slot := mgr.locate(i)
	return b.m.StateSlot(slot)
}

func (mgr *Manager) locate(i int) (*faultBatch, int) {
	return mgr.batches[i/sim.Slots], i % sim.Slots
}

// Append applies one vector to the good machine and every batch,
// recording new detections at the current time index. It returns the
// global indices of newly detected faults. Batches step concurrently
// when the simulator has spare workers; detections are reassembled in
// batch order, so the result is identical to serial stepping.
func (mgr *Manager) Append(v logic.Vector) []int {
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
	var newly []int
	for _, b := range mgr.batches {
		newly = append(newly, b.newly...)
		b.newly = nil
	}
	mgr.now++
	return newly
}

// stepBatch advances one batch by v and records its new detections,
// returning their global indices. DetectedAt writes are disjoint across
// batches, so stepBatch may run concurrently for different batches.
func (mgr *Manager) stepBatch(b *faultBatch, v logic.Vector, goodVals []logic.Value) []int {
	if b.alive == 0 {
		// Detected batches still step so their state stays
		// meaningful, but cheaply skipping them is safe because
		// no one asks for a detected fault's state.
		return nil
	}
	b.m.Step(v)
	det := b.m.OutputDiff(goodVals) & b.alive
	if det == 0 {
		return nil
	}
	b.alive &^= det
	var newly []int
	for ; det != 0; det &= det - 1 {
		gi := b.lo + bits.TrailingZeros64(det)
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
