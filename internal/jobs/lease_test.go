package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/runctl"
	"repro/internal/sim"
)

// TestServerCompactFlow: a compact job completes with per-circuit
// restoration and omission results, and splitting the omission grid
// across chunks (omit_shards) and workers returns result bytes
// identical to the unsharded single-worker job.
func TestServerCompactFlow(t *testing.T) {
	spec := Spec{Flow: FlowCompact, Circuits: []string{"s27"}, Seed: 5, SeqLen: 96}

	_, single := testServer(t, Options{Workers: 1})
	unsharded := completeJob(t, single, spec)

	var res Result
	if err := json.Unmarshal(unsharded, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Compact) != 1 || res.Compact[0].Circuit != "s27" {
		t.Fatalf("compact results = %+v", res.Compact)
	}
	cr := res.Compact[0]
	if cr.CompactedLen <= 0 || cr.CompactedLen > cr.RestoredLen || cr.RestoredLen > cr.SeqLen {
		t.Fatalf("compaction lengths out of order: %+v", cr)
	}
	if len(cr.Kept) != cr.SeqLen {
		t.Fatalf("kept mask length %d, want %d", len(cr.Kept), cr.SeqLen)
	}
	kept := 0
	for i := 0; i < len(cr.Kept); i++ {
		if cr.Kept[i] == '1' {
			kept++
		}
	}
	if kept != cr.CompactedLen {
		t.Fatalf("kept mask keeps %d vectors, result says %d", kept, cr.CompactedLen)
	}

	sharded := spec
	sharded.OmitShards = 3
	_, multi := testServer(t, Options{Workers: 2})
	got := completeJob(t, multi, sharded)
	if !bytes.Equal(got, unsharded) {
		t.Fatalf("sharded compact result differs from unsharded:\n--- sharded ---\n%s\n--- unsharded ---\n%s", got, unsharded)
	}
}

// TestWorkerClaimProtocol: a server with no local workers is drained
// entirely by a remote Worker over HTTP, producing result bytes
// identical to a local single-worker server.
func TestWorkerClaimProtocol(t *testing.T) {
	spec := Spec{Flow: FlowGenerate, Circuits: []string{"s27"}, Seed: 3}

	_, local := testServer(t, Options{Workers: 1})
	want := completeJob(t, local, spec)

	s, c := testServer(t, Options{Workers: -1})
	if n := s.Workers(); n != 0 {
		t.Fatalf("remote-only server has %d local workers", n)
	}
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerOptions{
		Server:  c.Base,
		Name:    "w1",
		DataDir: t.TempDir(),
		Poll:    10 * time.Millisecond,
		HTTP:    c.HTTP,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()

	final := waitTerminal(t, c, st.ID)
	cancel()
	<-done
	if final.State != StateComplete {
		t.Fatalf("job settled %s (error %q)", final.State, final.Error)
	}
	got, err := c.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("remote-worker result differs from local:\n--- remote ---\n%s\n--- local ---\n%s", got, want)
	}
}

// TestClaimRejectsMalformedBody: a claim body with an unknown field or
// trailing data gets a 400 and leases nothing, so the task stays
// claimable by a well-formed claim.
func TestClaimRejectsMalformedBody(t *testing.T) {
	_, c := testServer(t, Options{Workers: -1})
	ctx := context.Background()
	if _, err := c.Submit(ctx, Spec{Flow: FlowGenerate, Circuits: []string{"s27"}, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"worker":"w1","wroker":"x"}`,
		`{"worker":"w2"} junk`,
		`{"worker":"w3"}}`,
	} {
		resp, err := c.HTTP.Post(c.Base+"/v1/worker/claim", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("claim %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if workers, err := c.Workers(ctx); err != nil || len(workers) != 0 {
		t.Fatalf("leases after rejected claims = %+v, %v", workers, err)
	}
	if a, err := c.Claim(ctx, "w4"); err != nil || a == nil {
		t.Fatalf("well-formed claim = %+v, %v, want the task", a, err)
	}
}

// TestLeaseLifecycle drives the claim API directly: a claim shows up in
// the workers view, heartbeats renew it, completion consumes it, and
// every later touch of the token gets ErrLeaseGone (HTTP 410 over the
// wire).
func TestLeaseLifecycle(t *testing.T) {
	s, c := testServer(t, Options{Workers: -1})
	ctx := context.Background()
	if _, err := c.Submit(ctx, Spec{Flow: FlowGenerate, Circuits: []string{"s27"}, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	a, err := c.Claim(ctx, "manual")
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || a.Name != "s27" || a.TTLMS <= 0 {
		t.Fatalf("claim = %+v", a)
	}
	workers, err := c.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 1 || workers[0].Worker != "manual" || workers[0].Lease != a.Lease {
		t.Fatalf("workers view = %+v", workers)
	}
	if _, err := c.Heartbeat(ctx, a.Lease, []byte(`{"probe":1}`)); err != nil {
		t.Fatal(err)
	}
	// Nothing else is claimable while the only task is leased.
	if extra, err := c.Claim(ctx, "manual2"); err != nil || extra != nil {
		t.Fatalf("second claim = %+v, %v", extra, err)
	}

	// Run the task for real and upload the result.
	path := filepath.Join(t.TempDir(), "manual.ckpt")
	ctl := &runctl.Control{
		Budget: runctl.Budget{StopAfterPolls: a.StopAfterPolls},
		Store:  runctl.NewFileStore(path), Resume: a.Resume, SaveEvery: 8,
	}
	res := executeFlow(&a.Spec, a.Circuit, sim.FaultRange{Start: a.ShardStart, End: a.ShardEnd},
		a.Chunk, a.RestoredKept, ctl, nil)
	ckpt, _ := os.ReadFile(path)
	if err := c.CompleteClaim(ctx, a.Lease, res, ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Heartbeat(ctx, a.Lease, nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("heartbeat after completion = %v, want ErrLeaseGone", err)
	}
	if err := c.ReleaseClaim(ctx, a.Lease, nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("release after completion = %v, want ErrLeaseGone", err)
	}
	if err := c.CompleteClaim(ctx, a.Lease, res, nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("double completion = %v, want ErrLeaseGone", err)
	}
	_ = s
}

// TestLeaseRejectsMalformedResult: an uploaded result that result
// assembly could not use gets a 400 before anything is persisted, the
// server keeps answering, and the lease stays live, so a well-formed
// upload on it then completes the job exactly like a local run.
func TestLeaseRejectsMalformedResult(t *testing.T) {
	spec := Spec{Flow: FlowSimulate, Circuits: []string{"s27"}, Seed: 2, SeqLen: 32}

	_, local := testServer(t, Options{Workers: 1})
	want := completeJob(t, local, spec)

	_, c := testServer(t, Options{Workers: -1})
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Claim(ctx, "manual")
	if err != nil || a == nil {
		t.Fatalf("claim = %+v, %v", a, err)
	}
	faults := a.ShardEnd - a.ShardStart
	short := make([]int, faults-1)
	late := make([]int, faults)
	late[3] = spec.SeqLen
	for _, body := range []string{
		`{"result":{"status":"complete"}}`,
		fmt.Sprintf(`{"result":{"status":"complete","faults":%d,"detected_at":%s}}`, faults, mustJSON(t, short)),
		fmt.Sprintf(`{"result":{"status":"complete","faults":%d,"detected_at":%s}}`, faults, mustJSON(t, late)),
		fmt.Sprintf(`{"result":{"status":"complete","faults":%d,"detected_at":%s}}`, faults+1, mustJSON(t, make([]int, faults))),
	} {
		resp, err := c.HTTP.Post(c.Base+"/v1/worker/claims/"+a.Lease+"/result", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("upload %s: status %d, want 400", body, resp.StatusCode)
		}
		getCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_, err = c.Get(getCtx, st.ID)
		cancel()
		if err != nil {
			t.Fatalf("server stopped answering after a malformed upload: %v", err)
		}
	}
	if workers, err := c.Workers(ctx); err != nil || len(workers) != 1 {
		t.Fatalf("leases after rejected uploads = %+v, %v", workers, err)
	}

	ctl := &runctl.Control{Store: runctl.NewFileStore(filepath.Join(t.TempDir(), "ckpt")), Resume: a.Resume}
	res := executeFlow(&a.Spec, a.Circuit, sim.FaultRange{Start: a.ShardStart, End: a.ShardEnd},
		a.Chunk, a.RestoredKept, ctl, nil)
	if err := c.CompleteClaim(ctx, a.Lease, res, nil); err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, c, st.ID); final.State != StateComplete {
		t.Fatalf("job settled %s (error %q)", final.State, final.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result after rejected uploads differs from a local run:\n--- got ---\n%s\n--- local ---\n%s", got, want)
	}
}

// TestLeaseResultWriteFailure: a done task's result file is written
// before anything is recorded, so a failed write leaves the task undone
// and its lease live. Once the write can succeed, the same lease
// completes and the job settles complete with a local run's result.
func TestLeaseResultWriteFailure(t *testing.T) {
	spec := Spec{Flow: FlowSimulate, Circuits: []string{"s27"}, Seed: 2, SeqLen: 32}

	_, local := testServer(t, Options{Workers: 1})
	want := completeJob(t, local, spec)

	s, c := testServer(t, Options{Workers: -1})
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Claim(ctx, "manual")
	if err != nil || a == nil {
		t.Fatalf("claim = %+v, %v", a, err)
	}
	ctl := &runctl.Control{Store: runctl.NewFileStore(filepath.Join(t.TempDir(), "ckpt")), Resume: a.Resume}
	res := executeFlow(&a.Spec, a.Circuit, sim.FaultRange{Start: a.ShardStart, End: a.ShardEnd},
		a.Chunk, a.RestoredKept, ctl, nil)

	// A directory where the result file goes makes its write fail.
	s.mu.Lock()
	blocker := s.jobs[st.ID].taskResultPath(0)
	s.mu.Unlock()
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteLease(a.Lease, res, nil); err == nil {
		t.Fatal("completion accepted although its result file could not be written")
	}
	after, err := s.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Tasks[0].Done || after.State.Terminal() {
		t.Fatalf("after a failed result write: task done=%v, job %s", after.Tasks[0].Done, after.State)
	}
	if workers, err := c.Workers(ctx); err != nil || len(workers) != 1 {
		t.Fatalf("leases after a failed result write = %+v, %v", workers, err)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteLease(a.Lease, res, nil); err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, c, st.ID); final.State != StateComplete {
		t.Fatalf("job settled %s (error %q)", final.State, final.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result differs from a local run:\n--- got ---\n%s\n--- local ---\n%s", got, want)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestLeaseReclaimCrashResume is the acceptance scenario: a worker
// claims a compaction chunk, checkpoints partway through its window
// share via heartbeat, then dies without releasing. The janitor
// reclaims the expired lease, a healthy worker resumes the chunk from
// the uploaded checkpoint, and the job's final result bytes are
// identical to an uninterrupted single-process run.
func TestLeaseReclaimCrashResume(t *testing.T) {
	spec := Spec{Flow: FlowCompact, Circuits: []string{"s27"}, Seed: 5, SeqLen: 96, OmitShards: 2}

	_, single := testServer(t, Options{Workers: 1})
	want := completeJob(t, single, spec)

	s, c := testServer(t, Options{Workers: -1, LeaseTTL: time.Minute})
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: act as a healthy worker for the restore stage.
	a, err := c.Claim(ctx, "crashy")
	if err != nil || a == nil {
		t.Fatalf("claim restore: %+v, %v", a, err)
	}
	if a.Name != "s27/restore" {
		t.Fatalf("first claim = %q, want s27/restore", a.Name)
	}
	dir := t.TempDir()
	runTask := func(a *Assignment, polls int64) (*taskResult, []byte) {
		path := filepath.Join(dir, a.Name[strings.LastIndexByte(a.Name, '/')+1:]+".ckpt")
		os.Remove(path)
		if len(a.Checkpoint) > 0 {
			if err := os.WriteFile(path, a.Checkpoint, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ctl := &runctl.Control{
			Budget: runctl.Budget{StopAfterPolls: polls},
			Store:  runctl.NewFileStore(path), Resume: a.Resume, SaveEvery: 1,
		}
		res := executeFlow(&a.Spec, a.Circuit, sim.FaultRange{Start: a.ShardStart, End: a.ShardEnd},
			a.Chunk, a.RestoredKept, ctl, nil)
		ckpt, _ := os.ReadFile(path)
		return res, ckpt
	}
	res, ckpt := runTask(a, 0)
	if res.Status != runctl.Complete {
		t.Fatalf("restore stage status %v (error %q)", res.Status, res.Error)
	}
	if err := c.CompleteClaim(ctx, a.Lease, res, ckpt); err != nil {
		t.Fatal(err)
	}

	// Phase 2: claim the first omission chunk, stop after a couple of
	// polls (mid-share), heartbeat the partial checkpoint — then crash:
	// no release, no further heartbeats.
	a, err = c.Claim(ctx, "crashy")
	if err != nil || a == nil {
		t.Fatalf("claim omit chunk: %+v, %v", a, err)
	}
	if a.Name != "s27/omit-0" || a.Chunk != 0 {
		t.Fatalf("second claim = %q chunk %d, want s27/omit-0", a.Name, a.Chunk)
	}
	if a.RestoredKept == "" {
		t.Fatal("omit chunk assignment lacks the restored kept mask")
	}
	res, ckpt = runTask(a, 2)
	if !res.Status.Stopped() && res.Status != runctl.Complete {
		t.Fatalf("interrupted chunk status %v", res.Status)
	}
	if _, err := c.Heartbeat(ctx, a.Lease, ckpt); err != nil {
		t.Fatal(err)
	}

	// The janitor reclaims the dead worker's lease once it expires;
	// jump the server's clock past the TTL instead of waiting a minute.
	s.mu.Lock()
	s.testNow = func() time.Time { return time.Now().Add(2 * time.Minute) }
	s.mu.Unlock()
	s.reclaimExpired()
	if workers, err := c.Workers(ctx); err != nil || len(workers) != 0 {
		t.Fatalf("leases after reclaim = %+v, %v", workers, err)
	}
	// Late work from the dead worker is refused.
	if _, err := c.Heartbeat(ctx, a.Lease, ckpt); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("heartbeat after reclaim = %v, want ErrLeaseGone", err)
	}
	if err := c.CompleteClaim(ctx, a.Lease, res, ckpt); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("upload after reclaim = %v, want ErrLeaseGone", err)
	}
	s.mu.Lock()
	s.testNow = time.Now
	s.mu.Unlock()

	// Phase 3: a healthy worker drains the rest — the reclaimed chunk
	// resumes from the heartbeated checkpoint.
	w, err := NewWorker(WorkerOptions{
		Server: c.Base, Name: "healthy", DataDir: t.TempDir(),
		Poll: 10 * time.Millisecond, HTTP: c.HTTP, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Run(wctx) }()
	final := waitTerminal(t, c, st.ID)
	cancel()
	<-done
	if final.State != StateComplete {
		t.Fatalf("job settled %s (error %q)", final.State, final.Error)
	}

	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-crash result differs from uninterrupted run:\n--- crashed ---\n%s\n--- reference ---\n%s", got, want)
	}

	// The event stream records the reclaim.
	body, err := c.Events(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(events, []byte("task_reclaimed")) {
		t.Fatalf("event stream lacks task_reclaimed:\n%s", events)
	}
}

// TestWorkerGracefulRelease: canceling a Worker mid-task releases the
// lease with a checkpoint instead of finishing it, and the task stays
// claimable for the next worker.
func TestWorkerGracefulRelease(t *testing.T) {
	s, c := testServer(t, Options{Workers: -1})
	ctx := context.Background()
	st, err := c.Submit(ctx, Spec{Flow: FlowCompact, Circuits: []string{"s27"}, Seed: 5, SeqLen: 96})
	if err != nil {
		t.Fatal(err)
	}

	// A worker canceled mid-task: the engine stops at its next poll and
	// the assignment is released with a checkpoint, not completed.
	w, err := NewWorker(WorkerOptions{
		Server: c.Base, Name: "leaving", DataDir: t.TempDir(),
		HTTP: c.HTTP, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Claim(ctx, "leaving")
	if err != nil || a == nil {
		t.Fatalf("claim = %+v, %v", a, err)
	}
	wctx, cancel := context.WithCancel(ctx)
	cancel()
	w.runAssignment(wctx, a)
	if workers, _ := c.Workers(ctx); len(workers) != 0 {
		t.Fatalf("lease still live after release: %+v", workers)
	}
	after, err := c.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Tasks[0].Started || after.Tasks[0].Done {
		t.Fatalf("released task = %+v, want unclaimed and unfinished", after.Tasks[0])
	}
	_ = s

	// A healthy worker picks the released task up and the job completes.
	w2, err := NewWorker(WorkerOptions{
		Server: c.Base, Name: "finishing", DataDir: t.TempDir(),
		Poll: 10 * time.Millisecond, HTTP: c.HTTP, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	w2ctx, cancel2 := context.WithCancel(ctx)
	defer cancel2()
	done := make(chan struct{})
	go func() { defer close(done); w2.Run(w2ctx) }()
	final := waitTerminal(t, c, st.ID)
	cancel2()
	<-done
	if final.State != StateComplete {
		t.Fatalf("job settled %s (error %q)", final.State, final.Error)
	}
}
