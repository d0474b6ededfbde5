// Package jobs is the ATPG job service layer behind cmd/scand: a work
// queue that shards flow runs across circuits and across Slots-aligned
// fault partitions, an HTTP/JSON API over it, and a client for
// cmd/scanctl. Jobs are budgeted and checkpointed through
// internal/runctl, observed through a per-job internal/obs flight
// recorder whose JSONL stream is both persisted and live-streamed to
// API watchers, and every partial state is resumable: a job canceled,
// drained or killed mid-run continues from its checkpoints to output
// bit-identical to an uninterrupted run.
//
// Sharding is correctness-preserving by construction: fault partitions
// come from sim.PartitionFaults, whose Slots-aligned ranges re-batch
// under Simulator.RunSubset into exactly the batches an unpartitioned
// run would form, and batches only share the fault-free trace — so the
// merge of per-shard DetectedAt ranges is bit-identical to one
// single-process run at any worker count. internal/xcheck pins this as
// the jobs/partition-merge invariant against ShardedDetect, the same
// helper the server's shard tasks run.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/circuits"
	"repro/internal/compact"
)

// Flow names accepted by Spec.Flow.
const (
	FlowGenerate  = "generate"  // the paper's generation flow (core.RunGenerate)
	FlowTranslate = "translate" // the translation flow (core.RunTranslate)
	FlowSimulate  = "simulate"  // sharded fault simulation of a seeded sequence
	FlowCompact   = "compact"   // restoration + chunked omission of a seeded sequence
)

// Spec is a job submission: which flow to run, over which circuits,
// under what budget. The zero value of every optional field means "the
// default"; Validate rejects structurally invalid specs with typed
// *SpecError values, and DecodeSpec additionally rejects unknown JSON
// fields so that a typo in a client request fails loudly with a 400
// instead of silently running a different job.
type Spec struct {
	// Flow selects the pipeline: FlowGenerate, FlowTranslate,
	// FlowSimulate or FlowCompact.
	Flow string `json:"flow"`
	// Circuits lists catalog circuits; the job runs one task per
	// circuit (per shard for FlowSimulate), all claimable by different
	// workers.
	Circuits []string `json:"circuits"`
	// Seed drives every random choice; identical specs reproduce
	// identical results. 0 means seed 1.
	Seed uint64 `json:"seed,omitempty"`
	// NoCollapse disables structural fault collapsing.
	NoCollapse bool `json:"no_collapse,omitempty"`
	// Chains selects the scan-chain count for FlowGenerate (0/1 = the
	// paper's single chain). Other flows are single-chain only.
	Chains int `json:"chains,omitempty"`
	// Workers is the per-task fault-simulation worker count
	// (0 = GOMAXPROCS). Results are identical for every value.
	Workers int `json:"workers,omitempty"`
	// AdiOrder restores faults in increasing accidental-detection-index
	// order (changes the compacted output, deterministically).
	AdiOrder bool `json:"adi_order,omitempty"`
	// SkipBaseline / SkipCompaction trim the generate flow.
	SkipBaseline   bool `json:"skip_baseline,omitempty"`
	SkipCompaction bool `json:"skip_compaction,omitempty"`
	// Partitions splits each FlowSimulate circuit's fault universe into
	// this many Slots-aligned shards, one task each, so several workers
	// can run one circuit concurrently (0/1 = unsharded). The merged
	// result is bit-identical for every value.
	Partitions int `json:"partitions,omitempty"`
	// SeqLen is the FlowSimulate/FlowCompact sequence length (0 = 128
	// vectors, at most 65536). The sequence is a pure function of
	// (circuit, seed, seq_len).
	SeqLen int `json:"seq_len,omitempty"`
	// OmitShards splits each FlowCompact circuit's omission pass into
	// this many chained window chunks, claimable by different workers as
	// predecessors finish (0/1 = one omission task). The compacted
	// result is bit-identical for every value.
	OmitShards int `json:"omit_shards,omitempty"`
	// Priority orders jobs across tenants: all claimable tasks of a
	// higher priority run before any lower one; within a priority the
	// queue stays tenant-fair. 0 is the default class; negative values
	// mark background work.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS, when positive, bounds the whole job's wall clock; on
	// expiry in-flight tasks checkpoint and the job suspends resumable.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxAttempts / MaxTrials cap each task's generation attempts and
	// compaction trials (see runctl.Budget; enforced per task).
	MaxAttempts int64 `json:"max_attempts,omitempty"`
	MaxTrials   int64 `json:"max_trials,omitempty"`
	// StopAfterPolls injects a deterministic stop at the n-th run-control
	// poll of each task — the correctness harness's reproducible stand-in
	// for a mid-run cancel (see runctl.Budget.StopAfterPolls).
	StopAfterPolls int64 `json:"stop_after_polls,omitempty"`
	// Tenant groups jobs for fair scheduling: the queue round-robins
	// across tenants, so one tenant's job flood cannot starve another's
	// single job. Empty is the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
}

// SpecError reports one invalid Spec or Status field. The HTTP layer
// maps it to a 400 with the field named in the body.
type SpecError struct {
	Field  string
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("jobs: invalid %s: %s", e.Field, e.Reason)
}

// specErrf builds a *SpecError.
func specErrf(field, format string, args ...any) error {
	return &SpecError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// maxSeqLen caps Spec.SeqLen: a task allocates its whole sequence up
// front, so an unbounded length lets one submission exhaust a worker's
// memory. It is 16 times the 4096 vectors of the perfbench scand-fleet
// workload's simulate jobs, the longest sequence the repository runs.
const maxSeqLen = 65536

// validFlows in display order for error messages.
var validFlows = []string{FlowGenerate, FlowTranslate, FlowSimulate, FlowCompact}

// Validate checks the spec structurally: known flow, known circuits,
// parseable engine, non-negative budgets, and flow-specific fields only
// on the flow that honors them (a shard count on a generate job is a
// mistake, not a default). Every failure is a *SpecError.
func (s *Spec) Validate() error {
	flowOK := false
	for _, f := range validFlows {
		flowOK = flowOK || s.Flow == f
	}
	if !flowOK {
		return specErrf("flow", "%q (want %s)", s.Flow, strings.Join(validFlows, ", "))
	}
	if len(s.Circuits) == 0 {
		return specErrf("circuits", "at least one catalog circuit is required")
	}
	for _, name := range s.Circuits {
		if _, ok := circuits.Lookup(name); !ok {
			return specErrf("circuits", "unknown circuit %q", name)
		}
	}
	if s.Chains < 0 {
		return specErrf("chains", "must be non-negative")
	}
	if s.Chains > 1 && s.Flow != FlowGenerate {
		return specErrf("chains", "multiple scan chains apply to the generate flow only")
	}
	if s.Workers < 0 {
		return specErrf("workers", "must be non-negative")
	}
	if s.Partitions < 0 {
		return specErrf("partitions", "must be non-negative")
	}
	if s.Partitions > 1 && s.Flow != FlowSimulate {
		return specErrf("partitions", "fault partitioning applies to the simulate flow only")
	}
	if s.SeqLen < 0 {
		return specErrf("seq_len", "must be non-negative")
	}
	if s.SeqLen > maxSeqLen {
		return specErrf("seq_len", "more than %d vectors", maxSeqLen)
	}
	if s.SeqLen > 0 && s.Flow != FlowSimulate && s.Flow != FlowCompact {
		return specErrf("seq_len", "applies to the simulate and compact flows only")
	}
	if s.OmitShards < 0 {
		return specErrf("omit_shards", "must be non-negative")
	}
	if s.OmitShards > 1 && s.Flow != FlowCompact {
		return specErrf("omit_shards", "omission sharding applies to the compact flow only")
	}
	if s.OmitShards > 256 {
		return specErrf("omit_shards", "more than 256 shards")
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"timeout_ms", s.TimeoutMS},
		{"max_attempts", s.MaxAttempts},
		{"max_trials", s.MaxTrials},
		{"stop_after_polls", s.StopAfterPolls},
	} {
		if f.v < 0 {
			return specErrf(f.name, "must be non-negative")
		}
	}
	if len(s.Tenant) > 64 {
		return specErrf("tenant", "longer than 64 bytes")
	}
	return nil
}

// DecodeSpec decodes one JSON spec from r strictly (decodeBody) and
// validates it. This is the only decode path the server accepts
// submissions through.
func DecodeSpec(r io.Reader) (Spec, error) {
	var s Spec
	if err := decodeBody(r, &s); err != nil {
		return Spec{}, err
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// decodeBody decodes one JSON request body from r into v strictly: an
// empty body, malformed JSON, unknown fields and anything but
// whitespace after the value are all *SpecError (HTTP 400). Every POST
// body the server reads goes through it.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		reason := err.Error()
		if errors.Is(err, io.EOF) {
			reason = "empty body"
		}
		return &SpecError{Field: "body", Reason: reason}
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return &SpecError{Field: "body", Reason: "trailing data after the JSON value"}
	}
	return nil
}

// seed returns the effective seed (0 defaults to 1, matching the CLIs).
func (s *Spec) seed() uint64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// seqLen returns the effective simulate-flow sequence length.
func (s *Spec) seqLen() int {
	if s.SeqLen <= 0 {
		return 128
	}
	return s.SeqLen
}

// partitions returns the effective shard count.
func (s *Spec) partitions() int {
	if s.Partitions <= 0 {
		return 1
	}
	return s.Partitions
}

// omitShards returns the effective omission chunk count.
func (s *Spec) omitShards() int {
	if s.OmitShards <= 0 {
		return 1
	}
	return s.OmitShards
}

// order returns the restoration order the spec selects.
func (s *Spec) order() compact.Order {
	if s.AdiOrder {
		return compact.OrderADI
	}
	return compact.OrderDetection
}
