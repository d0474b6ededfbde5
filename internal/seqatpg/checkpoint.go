package seqatpg

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/runctl"
)

// genSection is the checkpoint-store section Generate owns.
const genSection = "generate"

// genCheckpoint is the persisted state of an interrupted Generate run:
// the sequence built so far (replayed through the Manager on resume to
// rebuild good/faulty machine states and DetectedAt), the loop position
// of the next attempt, the funct flags decided so far, and the RNG
// state — everything needed to make the resumed run bit-identical to an
// uninterrupted one.
type genCheckpoint struct {
	// Params fingerprints the options that shape the search; resuming
	// under different options would silently diverge, so it is rejected.
	Params string `json:"params"`
	Faults int    `json:"faults"`
	Inputs int    `json:"inputs"`

	Pass     int    `json:"pass"`
	Fault    int    `json:"fault"` // next fault index to attempt
	Sequence string `json:"sequence"`
	Funct    []int  `json:"funct"` // fault indices flagged funct so far
	RNG      uint64 `json:"rng"`
	Done     bool   `json:"done"`
}

// genParams fingerprints every setting that influences the generated
// sequence: the options (worker count deliberately excluded: results
// are identical for every value) and the search bounds, frames being
// the circuit's maxFrames. The string must not change, or checkpoints
// already written stop resuming; that is why it still ends in rand=0,
// the length of a random prefix that generation no longer has.
func genParams(opts Options, frames int) string {
	return fmt.Sprintf("seed=%d passes=%d frames=%d cands=%d podem=%d noscan=%v rand=0",
		opts.Seed, opts.Passes, frames, candidates, podemBacktracks, opts.DisableScanKnowledge)
}

// loadGenCheckpoint restores a prior Generate run whose fingerprint is
// params. It returns the parsed checkpoint and sequence, or ok=false
// when no checkpoint section exists.
func loadGenCheckpoint(ctl *runctl.Control, params string, nFaults, nInputs int) (st genCheckpoint, seq logic.Sequence, ok bool, err error) {
	ok, err = ctl.Load(genSection, &st)
	if err != nil || !ok {
		return st, nil, false, err
	}
	if st.Params != params {
		return st, nil, false, fmt.Errorf("seqatpg: checkpoint generated under %q, run uses %q", st.Params, params)
	}
	if st.Faults != nFaults || st.Inputs != nInputs {
		return st, nil, false, fmt.Errorf("seqatpg: checkpoint for %d faults / %d inputs, run has %d / %d",
			st.Faults, st.Inputs, nFaults, nInputs)
	}
	seq, err = logic.ParseSequence(st.Sequence)
	if err != nil {
		return st, nil, false, fmt.Errorf("seqatpg: checkpoint sequence corrupt: %w", err)
	}
	if len(seq) > 0 && len(seq[0]) != nInputs {
		return st, nil, false, fmt.Errorf("seqatpg: checkpoint vector width %d, circuit has %d inputs", len(seq[0]), nInputs)
	}
	for fi := range st.Funct {
		if st.Funct[fi] < 0 || st.Funct[fi] >= nFaults {
			return st, nil, false, fmt.Errorf("seqatpg: checkpoint funct index %d out of range", st.Funct[fi])
		}
	}
	return st, seq, true, nil
}

// saveGenCheckpoint persists the loop state; final (stop or completion)
// saves bypass the periodic throttle.
func saveGenCheckpoint(ctl *runctl.Control, params string, nFaults, nInputs, pass, fi int, seq logic.Sequence, funct []bool, rng *logic.RandFiller, done, final bool) error {
	if ctl == nil || ctl.Store == nil {
		return nil
	}
	st := genCheckpoint{
		Params:   params,
		Faults:   nFaults,
		Inputs:   nInputs,
		Pass:     pass,
		Fault:    fi,
		Sequence: seq.String(),
		RNG:      rng.State(),
		Done:     done,
	}
	for i, f := range funct {
		if f {
			st.Funct = append(st.Funct, i)
		}
	}
	if final {
		return ctl.Save(genSection, st)
	}
	return ctl.Checkpoint(genSection, st)
}
