package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
	"repro/internal/runctl"
)

// testServer builds a Server over a temp data dir with its HTTP API on
// an httptest server, returning a client against it.
func testServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	opts.Logf = t.Logf
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(s.Drain)
	return s, &Client{Base: hs.URL, HTTP: hs.Client()}
}

// waitTerminal polls until the job settles.
func waitTerminal(t *testing.T, c *Client, id string) *Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Watch(ctx, id, nil)
	if err != nil {
		t.Fatalf("watch %s: %v", id, err)
	}
	return st
}

// completeJob submits a spec and requires it to settle complete,
// returning its result bytes.
func completeJob(t *testing.T, c *Client, sp Spec) []byte {
	t.Helper()
	st, err := c.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, c, st.ID)
	if st.State != StateComplete {
		t.Fatalf("job %s settled %s (error %q), want complete", st.ID, st.State, st.Error)
	}
	data, err := c.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerLifecycle walks the happy path over HTTP: submit, stream
// events, complete, fetch a valid result and a schema-valid event
// stream.
func TestServerLifecycle(t *testing.T) {
	_, c := testServer(t, Options{Workers: 2})
	ctx := context.Background()

	st, err := c.Submit(ctx, Spec{Flow: FlowGenerate, Circuits: []string{"s27"}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("submit returned %+v", st)
	}

	var events bytes.Buffer
	final, err := c.Watch(ctx, st.ID, &events)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateComplete {
		t.Fatalf("state %s (error %q), want complete", final.State, final.Error)
	}
	if final.Resumable {
		t.Fatal("complete job reported resumable")
	}
	if len(final.Tasks) != 1 || !final.Tasks[0].Done || final.Tasks[0].Status != runctl.Complete {
		t.Fatalf("tasks = %+v", final.Tasks)
	}
	if final.Created == "" || final.Finished == "" {
		t.Fatalf("missing timestamps: %+v", final)
	}

	// The streamed events are a schema-valid obs stream ending in a
	// snapshot, and mention the job lifecycle markers.
	if _, err := obs.Validate(bytes.NewReader(events.Bytes())); err != nil {
		t.Fatalf("event stream invalid: %v\n%s", err, events.Bytes())
	}
	for _, marker := range []string{"task_claimed", "task_done", "settled"} {
		if !strings.Contains(events.String(), marker) {
			t.Fatalf("event stream lacks %q:\n%s", marker, events.String())
		}
	}

	data, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Flow != FlowGenerate || len(res.Generate) != 1 || res.Generate[0].Circ != "s27" {
		t.Fatalf("result = %+v", res)
	}
	if res.Generate[0].Detected == 0 {
		t.Fatal("generate flow detected zero faults")
	}

	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

// TestServerPartitionMerge is the acceptance gate's core claim: a
// simulate job sharded across two workers returns result bytes
// identical to the same spec unsharded on one worker.
func TestServerPartitionMerge(t *testing.T) {
	spec := Spec{Flow: FlowSimulate, Circuits: []string{"s298", "s27"}, Seed: 9, SeqLen: 48}

	_, single := testServer(t, Options{Workers: 1})
	unsharded := completeJob(t, single, spec)

	sharded := spec
	sharded.Partitions = 3
	_, multi := testServer(t, Options{Workers: 2})
	got := completeJob(t, multi, sharded)

	if !bytes.Equal(got, unsharded) {
		t.Fatalf("sharded result differs from unsharded:\n--- sharded ---\n%s\n--- unsharded ---\n%s", got, unsharded)
	}

	var res Result
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Simulate) != 2 || res.Simulate[0].Circuit != "s298" || res.Simulate[1].Circuit != "s27" {
		t.Fatalf("simulate results out of spec order: %+v", res.Simulate)
	}
	if res.Simulate[0].Detected == 0 {
		t.Fatal("s298 detected zero faults")
	}
}

// TestServerSimulateRepeatedCircuit: a simulate job may list a circuit
// more than once, and every row for it equals the row of the same job
// listing it once.
func TestServerSimulateRepeatedCircuit(t *testing.T) {
	spec := Spec{Flow: FlowSimulate, Circuits: []string{"s27"}, Seed: 2, SeqLen: 32}
	_, c := testServer(t, Options{Workers: 1})
	var once, twice Result
	if err := json.Unmarshal(completeJob(t, c, spec), &once); err != nil {
		t.Fatal(err)
	}
	spec.Circuits = []string{"s27", "s27"}
	if err := json.Unmarshal(completeJob(t, c, spec), &twice); err != nil {
		t.Fatal(err)
	}
	if len(once.Simulate) != 1 || len(twice.Simulate) != 2 {
		t.Fatalf("rows: %d listed once, %d listed twice", len(once.Simulate), len(twice.Simulate))
	}
	want, err := json.Marshal(once.Simulate[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range twice.Simulate {
		got, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("row %d: detected %d of %d faults, want %d of %d",
				i, row.Detected, row.Faults, once.Simulate[0].Detected, once.Simulate[0].Faults)
		}
	}
}

// TestServerSuspendResume pins the interrupt path end to end: a
// deterministic mid-run stop (StopAfterPolls) suspends the job with
// checkpoints; resuming over HTTP completes it with result bytes
// identical to a never-interrupted run.
func TestServerSuspendResume(t *testing.T) {
	spec := Spec{Flow: FlowSimulate, Circuits: []string{"s298"}, Seed: 5, SeqLen: 64}

	_, ref := testServer(t, Options{Workers: 1})
	want := completeJob(t, ref, spec)

	interrupted := spec
	interrupted.StopAfterPolls = 1
	_, c := testServer(t, Options{Workers: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, interrupted)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, c, st.ID)
	if st.State != StateSuspended || !st.Resumable {
		t.Fatalf("interrupted job settled %s resumable=%v, want suspended+resumable", st.State, st.Resumable)
	}
	if _, err := c.Result(ctx, st.ID); err == nil {
		t.Fatal("suspended job served a result")
	}

	// The checkpoint API exposes the partial state.
	names, err := c.Checkpoints(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("suspended job has no checkpoint artifacts")
	}
	if data, err := c.Checkpoint(ctx, st.ID, names[0]); err != nil || len(data) == 0 {
		t.Fatalf("checkpoint fetch: %d bytes, err %v", len(data), err)
	}
	if _, err := c.Checkpoint(ctx, st.ID, "../"+names[0]); err == nil {
		t.Fatal("path-traversal checkpoint name served")
	}

	if _, err := c.Resume(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, c, st.ID)
	if st.State != StateComplete {
		t.Fatalf("resumed job settled %s (error %q), want complete", st.State, st.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
}

// TestServerCancelResume gates a worker on the white-box task-start
// hook, cancels the job before its task can start, and checks the
// cancel settles deterministically as canceled+resumable; the resume
// then completes bit-identically to an undisturbed run.
func TestServerCancelResume(t *testing.T) {
	spec := Spec{Flow: FlowSimulate, Circuits: []string{"s27"}, Seed: 2, SeqLen: 32}

	_, ref := testServer(t, Options{Workers: 1})
	want := completeJob(t, ref, spec)

	s, c := testServer(t, Options{Workers: 1})
	claimed := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testTaskStart = func(*task) {
		once.Do(func() {
			close(claimed)
			<-release
		})
	}

	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	<-claimed // the worker holds the task pre-start; the job cannot finish under us
	canceled, err := c.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if canceled.State != StateCanceled || !canceled.Resumable {
		t.Fatalf("cancel settled %s resumable=%v, want canceled+resumable", canceled.State, canceled.Resumable)
	}

	// Cancel of a terminal job is an idempotent no-op.
	again, err := c.Cancel(ctx, st.ID)
	if err != nil || again.State != StateCanceled {
		t.Fatalf("second cancel: %+v, %v", again, err)
	}

	if _, err := c.Resume(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, c, st.ID)
	if st.State != StateComplete {
		t.Fatalf("resumed job settled %s (error %q), want complete", st.State, st.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-cancel result differs from undisturbed run")
	}
}

// TestServerDrainAndRestart is the SIGTERM path: drain interrupts an
// in-flight job, which settles suspended with checkpoints on disk; a
// fresh server over the same data dir reloads it and resumes it to a
// result bit-identical to an uninterrupted run — surviving both the
// drain and the process boundary.
func TestServerDrainAndRestart(t *testing.T) {
	spec := Spec{Flow: FlowSimulate, Circuits: []string{"s298"}, Seed: 11, SeqLen: 64, Partitions: 2}

	_, ref := testServer(t, Options{Workers: 2})
	want := completeJob(t, ref, spec)

	dataDir := t.TempDir()
	s1, err := NewServer(Options{DataDir: dataDir, Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	claimed := make(chan struct{}, 4)
	release := make(chan struct{})
	s1.testTaskStart = func(*task) {
		claimed <- struct{}{}
		<-release
	}
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-claimed // at least one worker holds a task
	s1.mu.Lock()
	ctxDone := s1.jobs[st.ID].ctx.Done()
	s1.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s1.Drain()
		close(drained)
	}()
	<-ctxDone      // the drain has canceled the job's context...
	close(release) // ...so workers proceed into canceled controls and stop
	<-drained

	after, err := s1.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !after.State.Terminal() || !after.Resumable || after.State == StateComplete {
		t.Fatalf("drained job settled %s resumable=%v, want an interrupted resumable state", after.State, after.Resumable)
	}

	// "Restart": a new server over the same data dir must reload the
	// job as suspended+resumable and resume it over HTTP.
	_, c := testServer(t, Options{DataDir: dataDir, Workers: 2})
	loaded, err := c.Get(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.State != StateSuspended && loaded.State != StateCanceled {
		t.Fatalf("reloaded job in state %s", loaded.State)
	}
	if !loaded.Resumable {
		t.Fatal("reloaded job not resumable")
	}
	if _, err := c.Resume(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, c, st.ID)
	if final.State != StateComplete {
		t.Fatalf("resumed job settled %s (error %q), want complete", final.State, final.Error)
	}
	got, err := c.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-drain-and-restart result differs from uninterrupted run")
	}
}

// TestServerHTTPErrors pins the error contract of the API surface.
func TestServerHTTPErrors(t *testing.T) {
	_, c := testServer(t, Options{Workers: 1})
	ctx := context.Background()

	wantCode := func(err error, code int) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != code {
			t.Fatalf("err = %v, want APIError %d", err, code)
		}
	}

	// 400: invalid spec and unknown field, with the field named.
	_, err := c.Submit(ctx, Spec{Flow: "nope", Circuits: []string{"s27"}})
	wantCode(err, http.StatusBadRequest)
	resp, err := c.HTTP.Post(c.Base+"/v1/jobs", "application/json",
		strings.NewReader(`{"flow":"generate","circuits":["s27"],"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// 404: unknown job everywhere.
	_, err = c.Get(ctx, "job-9999")
	wantCode(err, http.StatusNotFound)
	_, err = c.Cancel(ctx, "job-9999")
	wantCode(err, http.StatusNotFound)
	_, err = c.Result(ctx, "job-9999")
	wantCode(err, http.StatusNotFound)

	// 409: resume of a non-resumable (complete) job; result of an
	// unfinished job is exercised in TestServerSuspendResume.
	st, err := c.Submit(ctx, Spec{Flow: FlowGenerate, Circuits: []string{"s27"}})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, c, st.ID); final.State != StateComplete {
		t.Fatalf("job settled %s", final.State)
	}
	_, err = c.Resume(ctx, st.ID)
	wantCode(err, http.StatusConflict)

	// Health endpoint.
	hr, err := c.HTTP.Get(c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hr.StatusCode)
	}
}

// TestServerTenantFairness floods tenant A with a multi-circuit job and
// follows with tenant B's single job on a one-worker server: B's task
// must be claimed second, not last.
func TestServerTenantFairness(t *testing.T) {
	s, c := testServer(t, Options{Workers: 1})
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	s.testTaskStart = func(tk *task) {
		mu.Lock()
		order = append(order, tk.job.status.Spec.Tenant)
		mu.Unlock()
		<-gate // hold the first claim until both jobs are queued
	}

	ctx := context.Background()
	a, err := c.Submit(ctx, Spec{Flow: FlowGenerate, Circuits: []string{"s27", "s27", "s27"}, Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, Spec{Flow: FlowGenerate, Circuits: []string{"s27"}, Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitTerminal(t, c, a.ID)
	waitTerminal(t, c, b.ID)

	// The worker blocked on a's first claim while b enqueued; the
	// round-robin must serve b's single task before a's backlog.
	mu.Lock()
	defer mu.Unlock()
	want := []string{"a", "b", "a", "a"}
	if len(order) != len(want) {
		t.Fatalf("claim order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("claim order = %v, want %v", order, want)
		}
	}
}

// TestServerEventsReplayAfterRestart checks a reloaded terminal job
// still serves its full persisted event stream.
func TestServerEventsReplayAfterRestart(t *testing.T) {
	dataDir := t.TempDir()
	func() {
		s, c := testServer(t, Options{DataDir: dataDir, Workers: 1})
		completeJob(t, c, Spec{Flow: FlowGenerate, Circuits: []string{"s27"}})
		s.Drain()
	}()
	_, c := testServer(t, Options{DataDir: dataDir, Workers: 1})
	list, err := c.List(context.Background())
	if err != nil || len(list) != 1 {
		t.Fatalf("list after restart: %+v, %v", list, err)
	}
	body, err := c.Events(context.Background(), list[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.Validate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("replayed stream invalid: %v", err)
	}
	// The reloaded job's result is still served.
	if _, err := c.Result(context.Background(), list[0].ID); err != nil {
		t.Fatalf("result after restart: %v", err)
	}
}

// TestResumeRepairsTornEventsTail: a crash mid-append can leave a torn
// final line in a suspended job's events.jsonl. The resume leg after a
// restart drops it before appending, so both the file and the HTTP
// event stream stay valid and record the repair.
func TestResumeRepairsTornEventsTail(t *testing.T) {
	dataDir := t.TempDir()
	var id string
	func() {
		s, c := testServer(t, Options{DataDir: dataDir, Workers: 1})
		st, err := c.Submit(context.Background(),
			Spec{Flow: FlowSimulate, Circuits: []string{"s298"}, Seed: 5, SeqLen: 64, StopAfterPolls: 1})
		if err != nil {
			t.Fatal(err)
		}
		st = waitTerminal(t, c, st.ID)
		if st.State != StateSuspended || !st.Resumable {
			t.Fatalf("interrupted job settled %s resumable=%v, want suspended+resumable", st.State, st.Resumable)
		}
		id = st.ID
		s.Drain()
	}()
	path := filepath.Join(dataDir, id, "events.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"event","seq":9,"t":"2026`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, c := testServer(t, Options{DataDir: dataDir, Workers: 1})
	ctx := context.Background()
	if _, err := c.Resume(ctx, id); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	final, err := c.Watch(ctx, id, &stream)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateComplete {
		t.Fatalf("resumed job settled %s (error %q), want complete", final.State, final.Error)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"events.jsonl": file, "HTTP stream": stream.Bytes()} {
		if _, err := obs.Validate(bytes.NewReader(data)); err != nil {
			t.Errorf("%s invalid after resume: %v\n%s", name, err, data)
		}
		if !bytes.Contains(data, []byte(`"tail_repaired"`)) {
			t.Errorf("%s does not record the tail repair", name)
		}
	}
}

// TestReloadIgnoresRetiredSpecField: a job.json whose spec still
// carries the retired "engine" field reloads, because records are
// decoded leniently; only a submitted spec is strict.
func TestReloadIgnoresRetiredSpecField(t *testing.T) {
	dataDir := t.TempDir()
	var id string
	func() {
		s, c := testServer(t, Options{DataDir: dataDir, Workers: 1})
		st, err := c.Submit(context.Background(), Spec{Flow: FlowCompact, Circuits: []string{"s27"}, SeqLen: 16})
		if err != nil {
			t.Fatal(err)
		}
		if st = waitTerminal(t, c, st.ID); st.State != StateComplete {
			t.Fatalf("job settled %s (error %q), want complete", st.State, st.Error)
		}
		id = st.ID
		s.Drain()
	}()
	path := filepath.Join(dataDir, id, "job.json")
	var rec map[string]any
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	if err != nil {
		t.Fatal(err)
	}
	rec["spec"].(map[string]any)["engine"] = "scratch"
	if data, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, c := testServer(t, Options{DataDir: dataDir, Workers: 1})
	st, err := c.Get(context.Background(), id)
	if err != nil {
		t.Fatalf("job with a retired spec field not reloaded: %v", err)
	}
	if st.State != StateComplete {
		t.Fatalf("reloaded job in state %s, want complete", st.State)
	}
	if _, err := c.Result(context.Background(), id); err != nil {
		t.Fatalf("result after reload: %v", err)
	}
}

// TestCheckpointsSkipStrayTempFiles: a crash between a checkpoint's
// temp-file write and its rename leaves task-0.ckpt.tmp… in the job
// directory. Checkpoints lists only task-N.ckpt and task-N.result.json,
// so the temp file is not listed and fetching it is a 404.
func TestCheckpointsSkipStrayTempFiles(t *testing.T) {
	s, c := testServer(t, Options{Workers: -1})
	ctx := context.Background()
	st, err := c.Submit(ctx, Spec{Flow: FlowSimulate, Circuits: []string{"s27"}, Seed: 2, SeqLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Claim(ctx, "manual")
	if err != nil || a == nil {
		t.Fatalf("claim = %+v, %v", a, err)
	}
	if _, err := c.Heartbeat(ctx, a.Lease, []byte("checkpoint bytes")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	stray := s.jobs[st.ID].ckptPath(0) + ".tmp123456"
	s.mu.Unlock()
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	names, err := c.Checkpoints(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"task-0.ckpt"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Checkpoints = %v, want %v", names, want)
	}
	if data, err := c.Checkpoint(ctx, st.ID, "task-0.ckpt"); err != nil || string(data) != "checkpoint bytes" {
		t.Fatalf("task-0.ckpt = %q, %v", data, err)
	}
	_, err = c.Checkpoint(ctx, st.ID, filepath.Base(stray))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != http.StatusNotFound {
		t.Fatalf("fetching %s: %v, want a 404", filepath.Base(stray), err)
	}
}

// TestPersistStatusFailureLogged: a job.json write that fails is
// logged, naming the job, and the in-memory status still serves. No
// t.Parallel: failpoints are process-global.
func TestPersistStatusFailureLogged(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	s, err := NewServer(Options{DataDir: t.TempDir(), Workers: -1, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	defer failpoint.Disable()
	if err := failpoint.Enable("runctl.store.rename=error"); err != nil {
		t.Fatal(err)
	}
	sp := Spec{Flow: FlowSimulate, Circuits: []string{"s27"}, Seed: 2, SeqLen: 32}
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Disable()

	mu.Lock()
	lines := strings.Join(logged, "\n")
	mu.Unlock()
	if !strings.Contains(lines, st.ID) || !strings.Contains(lines, "job.json") {
		t.Fatalf("log after a failed job.json write names neither %s nor job.json:\n%s", st.ID, lines)
	}
	got, err := s.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID || got.State != StateQueued || len(got.Tasks) != 1 {
		t.Fatalf("Get after a failed job.json write = %+v", got)
	}
}
