package compact

import (
	"errors"
	"fmt"

	"repro/internal/runctl"
)

// errCheckpointCorrupt marks checkpoint-content errors that mean the
// stored state is damaged (truncated masks, out-of-range positions),
// as opposed to a checkpoint from a different run (vector/fault-count
// or order mismatches). Corruption is recoverable by redoing the pass;
// a wrong-run checkpoint means the caller's flags are wrong and must
// stay a hard failure.
var errCheckpointCorrupt = errors.New("compact: checkpoint corrupt")

// corruptCheckpointError reports whether err is a corruption-class
// load failure — from this package's own validation or from the store
// layer (runctl.CorruptError) — which the compaction passes survive by
// redoing the pass from the start.
func corruptCheckpointError(err error) bool {
	return errors.Is(err, errCheckpointCorrupt) || runctl.IsCorrupt(err)
}

// Checkpoint-store sections owned by the two compaction passes.
const (
	restoreSection = "restore"
	omitSection    = "omit"
)

// restoreCheckpoint is the persisted state of an interrupted RestoreOpts
// run. The restoration order is recomputed deterministically from the
// base simulation on resume, so only the loop position and the two bit
// masks need saving.
type restoreCheckpoint struct {
	InLen  int `json:"in_len"`
	Faults int `json:"faults"`
	// Order records the target-order policy the interrupted run used
	// (Order.String()); a resume under a different policy would walk a
	// different order with the same position, so the load refuses it.
	// Absent in checkpoints written before ADI ordering existed, which
	// decodes as "" and matches only OrderDetection.
	Order string `json:"order,omitempty"`
	// Pos is the next restoration-order position to process.
	Pos int `json:"pos"`
	// Kept marks input vectors restored so far ('1' per kept position).
	Kept string `json:"kept"`
	// Covered marks faults the restored subsequence already detects.
	Covered string `json:"covered"`
	Done    bool   `json:"done"`
}

// omitCheckpoint is the persisted state of an interrupted OmitOpts run,
// always taken at a removal-window boundary: a stop inside a window
// resumes from the window's start and redoes it deterministically.
type omitCheckpoint struct {
	InLen  int `json:"in_len"`
	Faults int `json:"faults"`
	// NextT is the working-sequence position the next removal window
	// ends at (windows run from the sequence end toward the front).
	NextT int `json:"next_t"`
	// Kept marks input vectors still present in the working sequence.
	Kept string `json:"kept"`
	// DetAt holds current detection times in working-sequence indices.
	DetAt []int `json:"det_at"`
	Done  bool  `json:"done"`
}

// packMask renders a bool slice as a '0'/'1' string.
func packMask(bs []bool) string {
	m := make([]byte, len(bs))
	for i, b := range bs {
		if b {
			m[i] = '1'
		} else {
			m[i] = '0'
		}
	}
	return string(m)
}

// unpackMask fills bs from a packMask string. A truncated or hand-edited
// checkpoint whose mask length disagrees with the run must fail the load
// instead of panicking on the index below, so the mismatch is reported
// as an error.
func unpackMask(s string, bs []bool) error {
	if len(s) != len(bs) {
		return maskLenError("", len(s), len(bs))
	}
	for i := range bs {
		bs[i] = s[i] == '1'
	}
	return nil
}

// maskLenError builds the canonical checkpoint-mask length mismatch
// error; name (optional) says which mask field disagreed.
func maskLenError(name string, have, want int) error {
	if name == "" {
		return fmt.Errorf("%w: checkpoint mask length mismatch (mask %d, want %d)", errCheckpointCorrupt, have, want)
	}
	return fmt.Errorf("%w: checkpoint mask length mismatch: %s mask %d, want %d", errCheckpointCorrupt, name, have, want)
}

func loadRestoreCheckpoint(ctl *runctl.Control, inLen, nFaults int, order Order) (st restoreCheckpoint, ok bool, err error) {
	ok, err = ctl.Load(restoreSection, &st)
	if err != nil || !ok {
		return st, false, err
	}
	if st.InLen != inLen || st.Faults != nFaults {
		return st, false, fmt.Errorf("compact: restore checkpoint for %d vectors / %d faults, run has %d / %d",
			st.InLen, st.Faults, inLen, nFaults)
	}
	have := st.Order
	if have == "" {
		have = OrderDetection.String()
	}
	if have != order.String() {
		return st, false, fmt.Errorf("compact: restore checkpoint used %s order, run uses %s", have, order)
	}
	if len(st.Kept) != inLen {
		return st, false, maskLenError("restore kept", len(st.Kept), inLen)
	}
	if len(st.Covered) != nFaults {
		return st, false, maskLenError("restore covered", len(st.Covered), nFaults)
	}
	if st.Pos < 0 {
		return st, false, fmt.Errorf("%w: restore checkpoint malformed (pos %d)", errCheckpointCorrupt, st.Pos)
	}
	return st, true, nil
}

func saveRestoreCheckpoint(ctl *runctl.Control, inLen, nFaults int, order Order, pos int, kept, covered []bool, done, final bool) error {
	if ctl == nil || ctl.Store == nil {
		return nil
	}
	st := restoreCheckpoint{
		InLen:   inLen,
		Faults:  nFaults,
		Order:   order.String(),
		Pos:     pos,
		Kept:    packMask(kept),
		Covered: packMask(covered),
		Done:    done,
	}
	if final {
		return ctl.Save(restoreSection, st)
	}
	return ctl.Checkpoint(restoreSection, st)
}

func loadOmitCheckpoint(ctl *runctl.Control, inLen, nFaults int) (st omitCheckpoint, ok bool, err error) {
	ok, err = ctl.Load(omitSection, &st)
	if err != nil || !ok {
		return st, false, err
	}
	if st.InLen != inLen || st.Faults != nFaults {
		return st, false, fmt.Errorf("compact: omit checkpoint for %d vectors / %d faults, run has %d / %d",
			st.InLen, st.Faults, inLen, nFaults)
	}
	if len(st.Kept) != inLen {
		return st, false, maskLenError("omit kept", len(st.Kept), inLen)
	}
	if len(st.DetAt) != nFaults {
		return st, false, fmt.Errorf("%w: checkpoint mask length mismatch: omit det_at %d, want %d",
			errCheckpointCorrupt, len(st.DetAt), nFaults)
	}
	curLen := 0
	for i := 0; i < len(st.Kept); i++ {
		if st.Kept[i] == '1' {
			curLen++
		}
	}
	if st.NextT < 0 || st.NextT > curLen {
		return st, false, fmt.Errorf("%w: omit checkpoint position %d outside working sequence of %d", errCheckpointCorrupt, st.NextT, curLen)
	}
	return st, true, nil
}

func saveOmitCheckpoint(ctl *runctl.Control, inLen, nFaults, nextT int, kept string, detAt []int, done, final bool) error {
	if ctl == nil || ctl.Store == nil {
		return nil
	}
	st := omitCheckpoint{
		InLen:  inLen,
		Faults: nFaults,
		NextT:  nextT,
		Kept:   kept,
		DetAt:  detAt,
		Done:   done,
	}
	if final {
		return ctl.Save(omitSection, st)
	}
	return ctl.Checkpoint(omitSection, st)
}
