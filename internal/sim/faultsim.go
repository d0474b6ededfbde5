package sim

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/runctl"
)

// NotDetected marks a fault with no detection in a Result.
const NotDetected = -1

// Result reports fault simulation of one sequence: for every fault, the
// first cycle (vector index) at which a discrepancy was observed on a
// primary output, or NotDetected.
type Result struct {
	DetectedAt []int
	// Status classifies the run when Options.Control was set: Complete
	// or Resumed for a full result, a stopped status when the run was
	// interrupted at a batch boundary — DetectedAt is then partial and
	// unprocessed faults read NotDetected. Always Complete (the zero
	// value) without a Control.
	Status runctl.Status
	// Err carries a worker failure, such as a recovered panic (see
	// PanicError); the faults of the failing batch and any unclaimed
	// batches read NotDetected. Runs without a Control re-panic on the
	// calling goroutine instead of reporting here.
	Err error
	// BatchSteps counts the units of fault-simulation work performed:
	// one unit is one 64-fault batch advanced by one vector. Each batch
	// stops at its own last first-detection, so the count reflects the
	// early exit; it is deterministic and independent of worker count.
	BatchSteps int64
	// FastForwarded counts batch-vectors the event-driven kernel skipped
	// outright because the batch's fault effects were dead (no diverged
	// flip-flop) and no fault site was activated by the fault-free
	// values of the cycle. Always zero under KernelFull. Like
	// BatchSteps, it is deterministic and independent of worker count.
	FastForwarded int64
}

// NumDetected counts detected faults.
func (r Result) NumDetected() int {
	n := 0
	for _, t := range r.DetectedAt {
		if t != NotDetected {
			n++
		}
	}
	return n
}

// Detected reports whether fault i was detected.
func (r Result) Detected(i int) bool { return r.DetectedAt[i] != NotDetected }

// Kernel selects the faulty-evaluation strategy of a fault-simulation
// run. Every kernel produces bit-identical DetectedAt results; only the
// work performed (and therefore BatchSteps/FastForwarded accounting)
// differs.
type Kernel uint8

const (
	// KernelEvent (the default) is the event-driven fault-cone kernel:
	// per cycle, only gates on a levelized dirty queue seeded from
	// active injection sites and diverged flip-flops are re-evaluated
	// against a cached fault-free image, and cycles in which the fault
	// effect is dead are skipped without evaluating any gate.
	KernelEvent Kernel = iota
	// KernelFull is the reference oracle: every gate of the circuit is
	// evaluated every cycle (Machine.eval).
	KernelFull
)

// Options configures fault simulation.
type Options struct {
	// Kernel selects the faulty-evaluation kernel; the zero value is
	// the event-driven kernel. Results are identical for every kernel.
	Kernel Kernel
	// Control, when non-nil, threads the run-control layer through the
	// simulation: cancellation and deadlines are polled at fault-batch
	// boundaries (in-flight batches drain, so a stop never yields a
	// half-simulated batch), per-batch detection state checkpoints to
	// the control's store under the "sim" section, and recovered worker
	// panics surface in Result.Err instead of re-panicking.
	Control *runctl.Control
}

// Run fault-simulates seq against every fault in faults, using
// parallel-fault simulation in batches of up to 64 faults. Detection is
// strictly at primary outputs (which for a scan circuit include
// scan_out): the faulty value must be binary and opposite to a binary
// good value.
//
// Each fault batch advances one vector at a time against the shared
// fault-free output trace and stops at its own last first-detection —
// test compaction issues millions of these runs, and most conclude long
// before the end of the sequence. Run is a thin single-worker wrapper
// over Simulator.Run; construct a Simulator directly to reuse its
// machine pool across calls or to fan batches out across cores.
func Run(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault, opts Options) Result {
	return NewSimulator(c, 1).Run(seq, faults, opts)
}

// RunSubset is Run restricted to the fault indices in subset; the
// result's DetectedAt is keyed by subset position (DetectedAt[i] is the
// detection cycle of faults[subset[i]]). Callers in tight loops should
// use Simulator.RunSubset, which reuses a machine pool and accepts
// caller-provided buffers.
func RunSubset(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault, subset []int, opts Options) Result {
	return NewSimulator(c, 1).RunSubset(seq, faults, subset, opts, nil, nil)
}

// FinalState simulates seq fault-free and returns the reached state
// (all X if seq is empty and initial is nil).
func FinalState(c *netlist.Circuit, seq logic.Sequence, initial []logic.Value) []logic.Value {
	m := New(c)
	if initial != nil {
		m.SetStateBroadcast(initial)
	}
	for _, v := range seq {
		m.Step(v)
	}
	return m.StateSlot(0)
}

// ForEachBatch splits n fault indices into batches of up to 64, [lo, hi),
// and calls fn(m, lo, hi) once per batch on up to Workers() goroutines,
// each with its own machine from the pool. A machine arrives as the
// pool or its previous batch left it, so fn injects the batch
// (InjectBatch) and sets the start state itself. Batches run
// concurrently, so fn must write only what its batch owns; results are
// then identical for every worker count.
func (s *Simulator) ForEachBatch(n int, fn func(m *Machine, lo, hi int)) {
	nBatches := (n + Slots - 1) / Slots
	batch := func(m *Machine, bi int) { fn(m, bi*Slots, min((bi+1)*Slots, n)) }
	nw := min(s.workers, nBatches)
	if nw <= 1 {
		m := s.Acquire()
		for bi := 0; bi < nBatches; bi++ {
			batch(m, bi)
		}
		s.Release(m)
		return
	}
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
				batch(m, bi)
			}
		}()
	}
	wg.Wait()
}

// RunScanTest grades one conventional scan test (SI, T) on a circuit
// without scan logic: si is scanned in fault-free (the standard model
// of the first and second approaches), seq is applied, and a fault is
// detected by a definite mismatch on a primary output during seq or in
// the scanned-out final state. The final-state compare reads the
// latched state, so a fault on a flip-flop's D pin is observed through
// the value it latches. Faults with skip[i] >= 0 are not simulated (a
// nil skip simulates all). It returns the detected fault indices in
// ascending order, identical for every worker count.
func (s *Simulator) RunScanTest(si logic.Vector, seq logic.Sequence, faults []fault.Fault, skip []int) []int {
	var idx []int
	var batch []fault.Fault
	for fi, f := range faults {
		if skip == nil || skip[fi] < 0 {
			idx = append(idx, fi)
			batch = append(batch, f)
		}
	}
	good := s.Acquire()
	good.SetStateBroadcast(si)
	rows := make([][]logic.Value, len(seq))
	for t, v := range seq {
		good.Step(v)
		rows[t] = good.OutputRow()
	}
	final := good.StateSlot(0)
	s.Release(good)

	det := make([]uint64, (len(batch)+Slots-1)/Slots)
	s.ForEachBatch(len(batch), func(m *Machine, lo, hi int) {
		m.InjectBatch(batch[lo:hi])
		m.Reset()
		m.SetStateBroadcast(si)
		var d uint64
		for t, v := range seq {
			m.Step(v)
			d |= m.OutputDiff(rows[t])
		}
		det[lo/Slots] = d | m.StateDiff(final)
	})
	var out []int
	for k, fi := range idx {
		if det[k/Slots]>>uint(k%Slots)&1 != 0 {
			out = append(out, fi)
		}
	}
	return out
}
