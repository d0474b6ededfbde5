package jobs

import (
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
)

// TestSequence builds the simulate flow's input sequence for a scan
// design: seqLen fully random vectors over C_scan's inputs (scan
// control included, so the sequence mixes shifts and functional
// cycles). It is a pure function of (design, seed, seqLen) — every
// shard of a job, a resumed job, and the xcheck invariant all
// regenerate the identical sequence from the spec alone.
func TestSequence(d *scan.Circuit, seed uint64, seqLen int) logic.Sequence {
	rng := logic.NewRandFiller(seed*0x9E3779B97F4A7C15 + 0x6A09E667F3BCC909)
	seq := make(logic.Sequence, seqLen)
	for i := range seq {
		seq[i] = logic.NewVector(d.Scan.NumInputs())
	}
	seq.FillX(rng)
	return seq
}

// RunShard fault-simulates one shard of a partitioned fault universe:
// the contiguous range r of faults, re-batched from the range's own
// start. The result's DetectedAt is keyed by position within the range.
// Because PartitionFaults aligns range starts to sim.Slots, the shard's
// batch decomposition equals the corresponding slice of the global
// one, so MergeShard reassembles exactly the unpartitioned result.
func RunShard(s *sim.Simulator, seq logic.Sequence, faults []fault.Fault, r sim.FaultRange, opts sim.Options) sim.Result {
	return s.RunSubset(seq, faults, r.Indices(), opts, nil, nil)
}

// MergeShard writes one shard's DetectedAt (keyed by position within r)
// into the global per-fault slice det. Shards of one partition cover
// disjoint ranges, so concurrent merges need no synchronization beyond
// completion ordering.
func MergeShard(det []int, r sim.FaultRange, shard []int) {
	copy(det[r.Start:r.End], shard)
}

// ShardedDetect is the reference implementation of the server's
// partitioned simulate flow, exported so internal/xcheck can pin it
// (invariant "jobs/partition-merge"): split faults into parts
// Slots-aligned shards, run up to concurrency of them at once — each on
// its own single-worker Simulator, like independent job workers — and
// merge. The returned DetectedAt is bit-identical to one unpartitioned
// Run for every (parts, concurrency).
func ShardedDetect(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault, parts, concurrency int) []int {
	det := make([]int, len(faults))
	ranges := sim.PartitionFaults(len(faults), parts)
	sim.Parallel(concurrency, len(ranges), func(_, i int) bool {
		if r := ranges[i]; r.Len() > 0 {
			res := RunShard(sim.NewSimulator(c, 1), seq, faults, r, sim.Options{})
			MergeShard(det, r, res.DetectedAt)
		}
		return true
	})
	return det
}
