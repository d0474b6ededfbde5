package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/runctl"
)

// FuzzDecodeSpec feeds arbitrary bodies to the HTTP submission decoder:
// it must never panic, every rejection must be a *SpecError, and an
// accepted spec must keep seq_len within its cap and survive a
// json.Marshal round trip unchanged.
func FuzzDecodeSpec(f *testing.F) {
	// README's curl walkthrough submits this spec.
	f.Add(`{
  "flow": "simulate", "circuits": ["s298", "s5378"],
  "seed": 7, "seq_len": 128, "partitions": 4, "tenant": "alice"
}`)
	for _, tc := range specValidateCases {
		sp := validSpec()
		tc.mutate(&sp)
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	// A spec that still sends the retired "engine" field is rejected.
	f.Add(`{"flow":"compact","circuits":["s27"],"engine":"scratch"}`)
	f.Fuzz(func(t *testing.T, body string) {
		sp, err := DecodeSpec(strings.NewReader(body))
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("DecodeSpec(%q) = %v (%T), want a *SpecError", body, err, err)
			}
			return
		}
		if sp.SeqLen > maxSeqLen {
			t.Fatalf("DecodeSpec(%q) accepted seq_len %d, cap %d", body, sp.SeqLen, maxSeqLen)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("re-encoding the spec of %q: %v", body, err)
		}
		again, err := DecodeSpec(strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("re-decoding %s (from %q): %v", b, body, err)
		}
		if !reflect.DeepEqual(sp, again) {
			t.Fatalf("round trip changed the spec\ninput: %q\nfirst:  %+v\nsecond: %+v", body, sp, again)
		}
	})
}

// FuzzWorkerBodies feeds arbitrary bodies to the claim and the
// heartbeat/release decoders: neither may panic, every rejection must
// be a *SpecError, and an accepted body must re-encode and decode to an
// equal value.
func FuzzWorkerBodies(f *testing.F) {
	for _, v := range []any{claimRequest{Worker: "w1"}, leaseUpdate{}, leaseUpdate{Checkpoint: []byte("ckpt")}} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	for _, body := range []string{
		``,
		`{"worker":"w1","wroker":"x"}`,
		`{"worker":"w2"} junk`,
		`{"worker":"w3"}}`,
		`{"checkpoint":""}`,
		`{"checkpoint":"not base64"}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var claim, claimAgain claimRequest
		if roundTripBody(t, body, &claim, &claimAgain) && claim != claimAgain {
			t.Fatalf("claim round trip of %q: %+v, then %+v", body, claim, claimAgain)
		}
		// An empty checkpoint re-encodes as none; both mean "no
		// checkpoint" to saveCheckpoint.
		var upd, updAgain leaseUpdate
		if roundTripBody(t, body, &upd, &updAgain) && !bytes.Equal(upd.Checkpoint, updAgain.Checkpoint) {
			t.Fatalf("heartbeat/release round trip of %q: %q, then %q", body, upd.Checkpoint, updAgain.Checkpoint)
		}
	})
}

// roundTripBody decodes body into v. A rejection must be a *SpecError;
// an accepted v is re-encoded and decoded into again, which must
// succeed, and roundTripBody reports true.
func roundTripBody(t *testing.T, body string, v, again any) bool {
	t.Helper()
	if err := decodeBody(strings.NewReader(body), v); err != nil {
		requireSpecError(t, body, err)
		return false
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("re-encoding the body %q: %v", body, err)
	}
	if err := decodeBody(bytes.NewReader(b), again); err != nil {
		t.Fatalf("re-decoding %s (from %q): %v", b, body, err)
	}
	return true
}

// FuzzResultUpload feeds arbitrary bodies to the result endpoint's
// decoder and checks each decoded result against four tasks: a simulate
// shard, a compact job's restore task and final omission chunk, and a
// generate task. It must never panic, every rejection must be a
// *SpecError, and every done result checkResult accepts must assemble:
// the shard merges into its circuit's detection vector, the kept mask
// applies to the job's sequence, the generate row is present.
func FuzzResultUpload(f *testing.F) {
	simJob := fuzzJob(f, Spec{Flow: FlowSimulate, Circuits: []string{"s298"}, Seed: 2, SeqLen: 32, Partitions: 2})
	compactJob := fuzzJob(f, Spec{Flow: FlowCompact, Circuits: []string{"s27"}, Seed: 5, SeqLen: 16, OmitShards: 2})
	generateJob := fuzzJob(f, Spec{Flow: FlowGenerate, Circuits: []string{"s27"}})
	shard := simJob.tasks[1]
	targets := []*task{shard, compactJob.tasks[0], compactJob.tasks[len(compactJob.tasks)-1], generateJob.tasks[0]}
	csp := &compactJob.status.Spec
	d, _, err := simWorkload(csp.Circuits[0], csp)
	if err != nil {
		f.Fatal(err)
	}
	seq := TestSequence(d, csp.seed(), csp.seqLen())

	// One result each target accepts, a stopped one, and malformed
	// uploads: no body, no result, a bad status, a short shard, a bad
	// mask.
	detected := make([]int, shard.shard.Len())
	for i := range detected {
		detected[i] = i%3 - 1
	}
	for _, res := range []*taskResult{
		{Status: runctl.Complete, Faults: shard.faults, DetectedAt: detected},
		{Status: runctl.Complete, Faults: 32, Kept: "1101101101101101",
			Compact: &compactTaskStats{TargetFaults: 30, RestoredLen: 11, CompactedLen: 9}},
		{Status: runctl.Resumed, Generate: &core.GenerateRow{Circ: "s27", TestLen: 32}},
		{Status: runctl.BudgetExhausted, Error: "stopped"},
	} {
		b, err := json.Marshal(resultUpload{Result: res, Checkpoint: []byte("ckpt")})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	for _, body := range []string{
		``,
		`{}`,
		`{"result":null}`,
		`{"result":{"status":"complete"}}`,
		`{"result":{"status":"done"}}`,
		`{"result":{"status":"complete","faults":308,"detected_at":[0,-1]}}`,
		`{"result":{"status":"complete","kept":"10x","compact":{}}} trailing`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		up, err := decodeResultUpload(strings.NewReader(body))
		if err != nil {
			requireSpecError(t, body, err)
			return
		}
		res := up.Result
		for _, tk := range targets {
			if err := tk.job.checkResult(tk, res); err != nil {
				requireSpecError(t, body, err)
				continue
			}
			if !res.Status.Done() {
				continue
			}
			switch tk.job.status.Spec.Flow {
			case FlowSimulate:
				det := make([]int, res.Faults)
				MergeShard(det, tk.shard, res.DetectedAt)
				if !slices.Equal(det[tk.shard.Start:tk.shard.End], res.DetectedAt) {
					t.Fatalf("accepted shard of %q did not merge", body)
				}
			case FlowCompact:
				out, err := compact.ApplyMask(seq, res.Kept)
				if err != nil || len(out) != strings.Count(res.Kept, "1") {
					t.Fatalf("accepted kept mask of %q does not apply: %d vectors, %v", body, len(out), err)
				}
			case FlowGenerate:
				if res.Generate == nil {
					t.Fatalf("accepted generate result of %q has no row", body)
				}
			}
		}
	})
}

// fuzzJob expands a spec into a job's tasks, with no server behind it.
func fuzzJob(f *testing.F, sp Spec) *job {
	if err := sp.Validate(); err != nil {
		f.Fatal(err)
	}
	j := &job{status: Status{Spec: sp}}
	if err := buildTasks(j); err != nil {
		f.Fatal(err)
	}
	return j
}

func requireSpecError(t *testing.T, body string, err error) {
	t.Helper()
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("body %q: %v (%T), want a *SpecError", body, err, err)
	}
}
