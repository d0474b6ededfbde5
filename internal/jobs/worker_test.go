package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runctl"
)

// jobEvents returns a settled job's job-phase events, each as its name
// plus its fields without the worker and lease that ran the task.
func jobEvents(t *testing.T, c *Client, id string) []map[string]any {
	t.Helper()
	body, err := c.Events(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	var out []map[string]any
	dec := json.NewDecoder(body)
	for dec.More() {
		var ln obs.Line
		if err := dec.Decode(&ln); err != nil {
			t.Fatal(err)
		}
		if ln.Type != "event" || ln.Phase != "job" {
			continue
		}
		ev := map[string]any{"name": ln.Name}
		for k, v := range ln.Fields {
			if k != "worker" && k != "lease" {
				ev[k] = v
			}
		}
		out = append(out, ev)
	}
	return out
}

// runWorker runs a remote Worker against c until the returned stop
// function is called.
func runWorker(t *testing.T, c *Client, name string) (stop func()) {
	t.Helper()
	w, err := NewWorker(WorkerOptions{
		Server: c.Base, Name: name, DataDir: t.TempDir(),
		Poll: 10 * time.Millisecond, HTTP: c.HTTP, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	return func() { cancel(); <-done }
}

// TestServerEventsLocalMatchRemote: a task leased by an in-process
// worker and one leased by a remote Worker go through the same claim
// path, so a job's job-phase events are the same either way, up to the
// worker and lease that ran each task.
func TestServerEventsLocalMatchRemote(t *testing.T) {
	spec := Spec{Flow: FlowGenerate, Circuits: []string{"s27"}, Seed: 3}

	_, local := testServer(t, Options{Workers: 1})
	st, err := local.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, local, st.ID)
	want := jobEvents(t, local, st.ID)

	_, remote := testServer(t, Options{Workers: -1})
	st, err = remote.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	stop := runWorker(t, remote, "w1")
	waitTerminal(t, remote, st.ID)
	stop()
	got := jobEvents(t, remote, st.ID)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("job events differ:\n--- remote ---\n%v\n--- in-process ---\n%v", got, want)
	}
	names := make([]any, len(got))
	for i, ev := range got {
		names[i] = ev["name"]
	}
	if !reflect.DeepEqual(names, []any{"submitted", "task_claimed", "task_done", "settled"}) {
		t.Fatalf("job event names = %v", names)
	}
}

// TestServerCancelWaitsForLocalTask: canceling a job while an
// in-process worker holds its task's lease cancels the lease but does
// not write it off, so the job settles only after the stopped task has
// reported with its checkpoint; resuming then completes bit-identically
// to an uninterrupted run. The worker is held, deterministically, at
// its first log line after the claim.
func TestServerCancelWaitsForLocalTask(t *testing.T) {
	spec := Spec{Flow: FlowSimulate, Circuits: []string{"s298"}, Seed: 5, SeqLen: 64, Workers: 1}

	_, ref := testServer(t, Options{Workers: 1})
	want := completeJob(t, ref, spec)

	leased := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	s, err := NewServer(Options{DataDir: t.TempDir(), Workers: 1, Logf: func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.HasPrefix(format, "claimed") {
			once.Do(func() { close(leased); <-gate })
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(s.Drain)
	c := &Client{Base: hs.URL, HTTP: hs.Client()}

	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-leased:
	case <-time.After(30 * time.Second):
		t.Fatal("no in-process worker leased the task")
	}
	canceled, err := c.Cancel(ctx, st.ID)
	close(gate)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State.Terminal() {
		t.Fatalf("cancel settled the job (%s) while its task was leased", canceled.State)
	}
	final := waitTerminal(t, c, st.ID)
	if final.State != StateCanceled || !final.Resumable {
		t.Fatalf("canceled job settled %s resumable=%v", final.State, final.Resumable)
	}

	var order []string
	for _, ev := range jobEvents(t, c, st.ID) {
		order = append(order, ev["name"].(string))
		if ev["name"] == "task_done" && ev["status"] != runctl.Canceled.String() {
			t.Fatalf("task reported %v, want it stopped by the cancel", ev["status"])
		}
	}
	if !reflect.DeepEqual(order, []string{"submitted", "task_claimed", "task_done", "settled"}) {
		t.Fatalf("job events = %v, want the task's report before the settle", order)
	}
	names, err := c.Checkpoints(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 || names[0] != "task-0.ckpt" {
		t.Fatalf("checkpoint artifacts = %v, want task-0.ckpt", names)
	}

	if _, err := c.Resume(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, c, st.ID); final.State != StateComplete {
		t.Fatalf("resumed job settled %s (error %q)", final.State, final.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
}

// TestServerDrainReclaimsUnreportedLocalLease: an in-process task whose
// final report fails (its checkpoint cannot be written) keeps its lease
// for the janitor, which Drain stops. Drain must still settle the job,
// suspended and resumable, once the in-process workers have left.
func TestServerDrainReclaimsUnreportedLocalLease(t *testing.T) {
	spec := Spec{Flow: FlowSimulate, Circuits: []string{"s298"}, Seed: 5, SeqLen: 64, Workers: 1}

	leased := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	s, err := NewServer(Options{DataDir: t.TempDir(), Workers: 1, Logf: func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.HasPrefix(format, "claimed") {
			once.Do(func() { close(leased); <-gate })
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-leased:
	case <-time.After(30 * time.Second):
		t.Fatal("no in-process worker leased the task")
	}
	// A directory where the checkpoint goes makes the report's write fail.
	s.mu.Lock()
	j := s.jobs[st.ID]
	ctxDone := j.ctx.Done()
	s.mu.Unlock()
	if err := os.Mkdir(j.ckptPath(0), 0o755); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() { defer close(drained); s.Drain() }()
	<-ctxDone
	close(gate)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return")
	}

	after, err := s.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StateSuspended || !after.Resumable {
		t.Fatalf("drained job is %s resumable=%v, want suspended and resumable", after.State, after.Resumable)
	}
	data, err := os.ReadFile(j.eventsPath())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"task_reclaimed"`) {
		t.Fatalf("no task_reclaimed event:\n%s", data)
	}
}

// TestWorkerUnresponsiveServer: a heartbeat the server never answers
// must not wedge the worker. Each lease request is bounded by the lease
// TTL, so runAssignment still returns and uploads the task's result. The
// assignment's time budget keeps the task short under the race detector
// and long enough otherwise for heartbeats at any GOMAXPROCS.
func TestWorkerUnresponsiveServer(t *testing.T) {
	spec := Spec{Flow: FlowSimulate, Circuits: []string{"s1423"}, Seed: 4, SeqLen: 512, Workers: 1}
	_, faults, err := simWorkload("s1423", &spec)
	if err != nil {
		t.Fatal(err)
	}

	stuck := make(chan struct{})
	var mu sync.Mutex
	unanswered := 0 // heartbeats the worker gave up on
	var uploaded *taskResult
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/worker/claims/{token}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		select { // never answer
		case <-r.Context().Done():
		case <-stuck:
		}
	})
	mux.HandleFunc("POST /v1/worker/claims/{token}/result", func(w http.ResponseWriter, r *http.Request) {
		var req resultUpload
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, err)
			return
		}
		mu.Lock()
		uploaded = req.Result
		mu.Unlock()
		writeJSON(w, map[string]any{"ok": true})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	defer close(stuck)

	logf := func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.HasPrefix(format, "heartbeat") {
			mu.Lock()
			unanswered++
			mu.Unlock()
		}
	}
	w, err := NewWorker(WorkerOptions{Server: hs.URL, Name: "w1", DataDir: t.TempDir(), HTTP: hs.Client(), Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	a := &Assignment{
		Lease: "lease-000001", TTLMS: 30, TimeoutMS: 200, Job: "job-0001", Name: "s1423", Spec: spec,
		Circuit: "s1423", ShardEnd: len(faults), Chunk: -1,
	}
	done := make(chan struct{})
	go func() { defer close(done); w.runAssignment(context.Background(), a) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("runAssignment still blocked on an unanswered heartbeat after 30s")
	}

	mu.Lock()
	defer mu.Unlock()
	if unanswered == 0 {
		t.Fatal("the task finished before its first heartbeat; the test needs a longer task")
	}
	if uploaded == nil {
		t.Fatal("no result uploaded")
	}
	if uploaded.Status.Done() && len(uploaded.DetectedAt) != len(faults) {
		t.Fatalf("uploaded %v with %d detection entries, want %d", uploaded.Status, len(uploaded.DetectedAt), len(faults))
	}
}
