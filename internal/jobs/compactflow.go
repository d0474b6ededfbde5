package jobs

import (
	"fmt"

	"repro/internal/compact"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sim"
)

// executeCompact runs one compact-flow task — the restoration stage
// (chunk < 0) or one omission window chunk — from plain inputs: spec,
// circuit name, the restore stage's kept mask (chunk tasks), and a
// Control wired to the task's checkpoint store. Nothing server-side is
// touched: the worker that leased the task owns the store, and the
// result travels back through its lease.
func executeCompact(sp *Spec, circuit string, chunk int, restoredKept string, ctl *runctl.Control, rec obs.Observer) *taskResult {
	d, faults, err := simWorkload(circuit, sp)
	if err != nil {
		return &taskResult{Status: runctl.Failed, Error: err.Error()}
	}
	seq := TestSequence(d, sp.seed(), sp.seqLen())
	s := sim.NewSimulator(d.Scan, sp.Workers)
	s.Observe(rec)
	opts := compact.Options{
		Sim:     s,
		Engine:  sp.engine(),
		Order:   sp.order(),
		Control: ctl,
		Obs:     rec,
	}
	ctl.Resume = true

	if chunk < 0 {
		restored, rst := compact.RestoreOpts(d.Scan, seq, faults, opts)
		res := &taskResult{Status: rst.Status, Faults: len(faults)}
		if rst.Status == runctl.Failed {
			res.Error = statsError(rst)
			return res
		}
		if !rst.Status.Done() {
			return res
		}
		st, ok, err := compact.LoadRestoreState(ctl.Store, len(seq), len(faults), sp.order())
		if err != nil || !ok {
			res.Status = runctl.Failed
			res.Error = fmt.Sprintf("restore checkpoint readback: ok=%v err=%v", ok, err)
			return res
		}
		res.Kept = st.Kept
		res.Compact = &compactTaskStats{
			TargetFaults: rst.TargetFaults,
			RestoredLen:  len(restored),
			RestoreExtra: rst.ExtraDetected,
		}
		return res
	}

	restored, err := compact.ApplyMask(seq, restoredKept)
	if err != nil {
		return &taskResult{Status: runctl.Failed, Error: err.Error()}
	}
	chunks := sp.omitShards()
	out, ost, chunkDone, err := compact.OmitChunkOpts(d.Scan, restored, faults, opts, chunk, chunks)
	if err != nil {
		return &taskResult{Status: runctl.Failed, Error: err.Error()}
	}
	if !chunkDone {
		// Stopped short of the chunk's window share by the job's own
		// budget, a cancel or a drain; the checkpoint has the boundary.
		return &taskResult{Status: ost.Status, Error: statsError(ost)}
	}
	if chunk < chunks-1 {
		// An intermediate chunk's entire deliverable is its checkpoint;
		// the task completes even though the pass's Status is a budget
		// stop by construction.
		return &taskResult{Status: runctl.Complete}
	}
	st, ok, err := compact.LoadOmitState(ctl.Store, len(restored), len(faults))
	if err != nil || !ok {
		return &taskResult{Status: runctl.Failed,
			Error: fmt.Sprintf("omit checkpoint readback: ok=%v err=%v", ok, err)}
	}
	kept, err := compact.ComposeKept(restoredKept, st.Kept)
	if err != nil {
		return &taskResult{Status: runctl.Failed, Error: err.Error()}
	}
	return &taskResult{
		Status: ost.Status,
		Faults: len(faults),
		Kept:   kept,
		Compact: &compactTaskStats{
			CompactedLen: len(out),
			OmitExtra:    ost.ExtraDetected,
		},
	}
}

// statsError extracts a pass's error text, empty when none.
func statsError(st compact.Stats) string {
	if st.Err != nil {
		return st.Err.Error()
	}
	return ""
}
