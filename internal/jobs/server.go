package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Service errors the HTTP layer maps onto status codes.
var (
	ErrNotFound     = errors.New("jobs: no such job")
	ErrNotResumable = errors.New("jobs: job is not resumable")
	ErrNoResult     = errors.New("jobs: job has no result yet")
	ErrDraining     = errors.New("jobs: server is draining")
	// ErrLeaseGone: the lease token is unknown or was reclaimed — the
	// worker must abandon the task (HTTP 410).
	ErrLeaseGone = errors.New("jobs: lease gone")
)

// Options configures a Server.
type Options struct {
	// DataDir is the server's persistent root: one subdirectory per job
	// holding job.json, events.jsonl, per-task checkpoints and results.
	// Jobs found here on startup are reloaded; ones that were mid-run
	// when the previous process died come back suspended and resumable.
	DataDir string
	// Workers is the in-process task worker count (0: GOMAXPROCS;
	// negative: none — every task is served to remote scanworker
	// processes through the claim API). Each in-process worker is a
	// Worker named local-N, with a scratch directory under
	// <DataDir>/workers, that leases one task at a time from the
	// tenant-fair queue exactly as a remote one does, so up to Workers
	// tasks — including disjoint fault shards of one job — run
	// concurrently.
	Workers int
	// LeaseTTL bounds how long a claimed task may go without a
	// heartbeat before the server reclaims it and re-queues the task
	// from its last uploaded checkpoint (0: 15s).
	LeaseTTL time.Duration
	// TenantQuota caps how many claimed-but-unfinished tasks one tenant
	// may hold across local workers and remote claims combined (0:
	// unlimited). A tenant at its quota is skipped, not failed.
	TenantQuota int
	// Logf, when set, receives startup warnings (e.g. an unreadable
	// job.json being skipped), failed job.json writes and the
	// in-process workers' log.
	Logf func(format string, args ...any)
}

// Server owns the job table, the tenant-fair queue, the leases and the
// in-process workers.
// Create with NewServer, expose over HTTP with Handler, stop with
// Drain.
type Server struct {
	dataDir string
	logf    func(string, ...any)

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // job IDs in submission order
	nextID   int
	draining bool

	q       *queue
	wg      sync.WaitGroup // in-process workers' Run loops
	workers int

	// Lease state (guarded by mu).
	leases   map[string]*lease
	leaseSeq int
	leaseTTL time.Duration

	janitorStop chan struct{}
	janitorDone chan struct{}

	// testTaskStart, when set (white-box tests only), runs on an
	// in-process worker's goroutine between popping a task and leasing
	// it.
	testTaskStart func(*task)
	// testNow, when set (white-box tests only), replaces time.Now for
	// lease expiry.
	testNow func() time.Time
}

// NewServer builds a Server over dataDir, reloads any persisted jobs,
// and starts the in-process workers.
func NewServer(opts Options) (*Server, error) {
	if opts.DataDir == "" {
		return nil, errors.New("jobs: Options.DataDir is required")
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 0 {
		workers = 0
	}
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		dataDir:     opts.DataDir,
		logf:        logf,
		jobs:        make(map[string]*job),
		nextID:      1,
		q:           newQueue(opts.TenantQuota),
		workers:     workers,
		leases:      make(map[string]*lease),
		leaseTTL:    ttl,
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		testNow:     time.Now,
	}
	if err := s.loadExisting(); err != nil {
		return nil, err
	}
	// Scratch left by a previous process belongs to no live lease.
	scratch := filepath.Join(opts.DataDir, "workers")
	if err := os.RemoveAll(scratch); err != nil {
		return nil, err
	}
	local := make([]*Worker, workers)
	for n := range local {
		name := fmt.Sprintf("local-%d", n+1)
		w, err := newWorker(WorkerOptions{Name: name, DataDir: filepath.Join(scratch, name), Logf: logf}, localClaims{s})
		if err != nil {
			return nil, err
		}
		local[n] = w
	}
	for _, w := range local {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(context.Background())
		}()
	}
	go s.janitor()
	return s, nil
}

// Workers returns the in-process worker count.
func (s *Server) Workers() int { return s.workers }

// loadExisting reloads persisted jobs from the data directory. A job
// whose record says queued or running was mid-flight when the previous
// process died: its checkpoints are intact, so it comes back suspended
// and resumable. Unreadable or invalid records are skipped with a
// warning — one corrupt file must not wedge the server.
func (s *Server) loadExisting() error {
	entries, err := os.ReadDir(s.dataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(e.Name(), "job-%d", &n); err != nil {
			continue
		}
		if n >= s.nextID {
			s.nextID = n + 1
		}
		dir := filepath.Join(s.dataDir, e.Name())
		var st Status
		if err := readJSONFile(filepath.Join(dir, "job.json"), &st); err != nil {
			s.logf("jobs: skipping %s: %v", e.Name(), err)
			continue
		}
		if err := st.Validate(); err != nil {
			s.logf("jobs: skipping %s: %v", e.Name(), err)
			continue
		}
		j := &job{srv: s, dir: dir, status: st}
		if !st.State.Terminal() {
			j.status.State = StateSuspended
			j.status.Resumable = true
			j.status.Finished = nowRFC3339()
			j.persistStatusLocked()
		}
		if err := j.rebuildTasks(); err != nil {
			s.logf("jobs: %s is not resumable: %v", e.Name(), err)
			j.status.Resumable = false
		}
		s.jobs[st.ID] = j
		s.order = append(s.order, st.ID)
	}
	sort.Strings(s.order)
	return nil
}

// rebuildTasks reconstructs the task list of a reloaded job from its
// spec (task expansion is deterministic) and checks it still lines up
// with the persisted task names.
func (j *job) rebuildTasks() error {
	saved := j.status.Tasks
	j.status.Tasks = nil
	j.tasks = nil
	if err := buildTasks(j); err != nil {
		j.status.Tasks = saved
		return err
	}
	rebuilt := j.status.Tasks
	j.status.Tasks = saved
	if len(rebuilt) != len(saved) {
		return fmt.Errorf("spec expands to %d tasks, record has %d", len(rebuilt), len(saved))
	}
	for i := range saved {
		if rebuilt[i].Name != saved[i].Name {
			return fmt.Errorf("task %d is %q in the record, %q from the spec", i, saved[i].Name, rebuilt[i].Name)
		}
	}
	return nil
}

// Submit validates, persists and enqueues one job, returning its
// initial status.
func (s *Server) Submit(sp Spec) (*Status, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	id := fmt.Sprintf("job-%04d", s.nextID)
	s.nextID++
	dir := filepath.Join(s.dataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &job{srv: s, dir: dir,
		status: Status{ID: id, Spec: sp, State: StateQueued, Created: nowRFC3339()}}
	if err := buildTasks(j); err != nil {
		return nil, err
	}
	if err := j.openLeg(false); err != nil {
		return nil, err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	j.persistStatusLocked()
	j.rec.Event("job", "submitted",
		obs.F("flow", sp.Flow), obs.F("tasks", len(j.tasks)))
	j.enqueueLocked()
	return j.status.clone(), nil
}

// Get returns one job's status.
func (s *Server) Get(id string) (*Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.status.clone(), nil
}

// List returns every job's status in submission order.
func (s *Server) List() []*Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status.clone())
	}
	return out
}

// Cancel stops a job: queued tasks are withdrawn, in-flight tasks
// observe the cancellation at their next run-control poll, checkpoint
// and stop. The job settles as canceled and resumable. Canceling a
// terminal job is a no-op.
func (s *Server) Cancel(id string) (*Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if !j.status.State.Terminal() {
		j.canceled = true
		s.q.remove(j)
		j.closeLegLocked()
	}
	return j.status.clone(), nil
}

// Resume re-enqueues a suspended or canceled job's unfinished tasks
// with their checkpoints: the continued run produces results
// bit-identical to an uninterrupted one.
func (s *Server) Resume(id string) (*Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if !j.status.State.Terminal() || !j.status.Resumable {
		return nil, ErrNotResumable
	}
	if err := j.openLeg(true); err != nil {
		return nil, err
	}
	j.persistStatusLocked()
	j.rec.Event("job", "resume")
	j.enqueueLocked()
	return j.status.clone(), nil
}

// Result returns a completed job's result.json bytes — exact stored
// bytes, so two jobs with identical deterministic results compare
// byte-identical through the API.
func (s *Server) Result(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	complete := j.status.State == StateComplete
	path := j.resultPath()
	s.mu.Unlock()
	if !complete {
		return nil, ErrNoResult
	}
	return os.ReadFile(path)
}

// Checkpoints lists a job's checkpoint artifacts by file name: each
// task's run-control store (task-N.ckpt) and result
// (task-N.result.json), where they exist.
func (s *Server) Checkpoints(id string) ([]string, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	var names []string
	for i := range j.status.Tasks { // fixed since submit or reload
		for _, path := range []string{j.ckptPath(i), j.taskResultPath(i)} {
			if _, err := os.Stat(path); err == nil {
				names = append(names, filepath.Base(path))
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// Checkpoint returns one checkpoint artifact's raw bytes. The name must
// be one returned by Checkpoints — anything else (including path
// traversal) is ErrNotFound.
func (s *Server) Checkpoint(id, name string) ([]byte, error) {
	names, err := s.Checkpoints(id)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if n == name {
			s.mu.Lock()
			dir := s.jobs[id].dir
			s.mu.Unlock()
			return os.ReadFile(filepath.Join(dir, name))
		}
	}
	return nil, ErrNotFound
}

// Drain gracefully stops the server: new submissions and resumes are
// rejected, every running job's context is canceled so in-flight tasks
// checkpoint and stop at their next poll, in-process workers report
// their tasks and leave Run once the queue is closed, and every
// interrupted job settles suspended (or canceled) with Resumable set.
// Drain returns when all jobs are settled; it is the SIGTERM path of
// cmd/scand.
func (s *Server) Drain() {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	for _, j := range s.jobs {
		if !j.status.State.Terminal() {
			j.cancel()
		}
	}
	s.mu.Unlock()
	if alreadyDraining {
		s.wg.Wait()
		return
	}
	close(s.janitorStop)
	<-s.janitorDone
	s.q.close()
	s.wg.Wait()
	s.mu.Lock()
	// Every in-process worker has left Run. A local lease still live
	// lost its final report to a failed checkpoint write and was left
	// for the janitor, which is stopped: reclaim it here, so its leg
	// can settle.
	for _, l := range s.leases {
		if l.local {
			s.requeueLocked(l, "task_reclaimed")
		}
	}
	for _, id := range s.order {
		s.jobs[id].closeLegLocked()
	}
	s.mu.Unlock()
}

// httpError maps service errors onto HTTP status codes with a JSON
// body.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var se *SpecError
	switch {
	case errors.As(err, &se):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotResumable), errors.Is(err, ErrNoResult):
		code = http.StatusConflict
	case errors.Is(err, ErrLeaseGone):
		code = http.StatusGone
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Handler returns the HTTP API:
//
//	POST /v1/jobs                       submit a spec (strict decode)
//	GET  /v1/jobs                       list job statuses
//	GET  /v1/jobs/{id}                  one job's status
//	GET  /v1/jobs/{id}/events           JSONL event stream (replay + follow)
//	GET  /v1/jobs/{id}/result           completed job's deterministic result
//	GET  /v1/jobs/{id}/checkpoints      checkpoint artifact names
//	GET  /v1/jobs/{id}/checkpoints/{name}  one artifact's bytes
//	POST /v1/jobs/{id}/cancel           cancel (checkpointing, resumable)
//	POST /v1/jobs/{id}/resume           resume from checkpoints
//	GET  /healthz                       liveness
//
// plus the worker-claim API remote scanworker processes lease tasks
// through, the HTTP form of the leases in-process workers take
// (docs/ALGORITHMS.md §16):
//
//	POST /v1/worker/claim                     claim a task (204 = none)
//	POST /v1/worker/claims/{token}/heartbeat  renew lease, upload checkpoint
//	POST /v1/worker/claims/{token}/result     upload the finished result
//	POST /v1/worker/claims/{token}/release    hand the task back (re-queued)
//	GET  /v1/workers                          every live lease, local and remote
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"ok": true, "workers": s.workers})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		sp, err := DecodeSpec(r.Body)
		if err != nil {
			httpError(w, err)
			return
		}
		st, err := s.Submit(sp)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Get(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Resume(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.Result(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoints", func(w http.ResponseWriter, r *http.Request) {
		names, err := s.Checkpoints(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		if names == nil {
			names = []string{}
		}
		writeJSON(w, names)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoints/{name}", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.Checkpoint(r.PathValue("id"), r.PathValue("name"))
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})
	mux.HandleFunc("POST /v1/worker/claim", func(w http.ResponseWriter, r *http.Request) {
		var req claimRequest
		if err := decodeBody(r.Body, &req); err != nil {
			httpError(w, err)
			return
		}
		a, err := s.ClaimTask(req.Worker)
		if err != nil {
			httpError(w, err)
			return
		}
		if a == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, a)
	})
	mux.HandleFunc("POST /v1/worker/claims/{token}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req leaseUpdate
		if err := decodeBody(r.Body, &req); err != nil {
			httpError(w, err)
			return
		}
		ttl, err := s.HeartbeatLease(r.PathValue("token"), req.Checkpoint)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]any{"ttl_ms": ttl.Milliseconds()})
	})
	mux.HandleFunc("POST /v1/worker/claims/{token}/result", func(w http.ResponseWriter, r *http.Request) {
		req, err := decodeResultUpload(r.Body)
		if err == nil {
			err = s.CompleteLease(r.PathValue("token"), req.Result, req.Checkpoint)
		}
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]any{"ok": true})
	})
	mux.HandleFunc("POST /v1/worker/claims/{token}/release", func(w http.ResponseWriter, r *http.Request) {
		var req leaseUpdate
		if err := decodeBody(r.Body, &req); err != nil {
			httpError(w, err)
			return
		}
		if err := s.ReleaseLease(r.PathValue("token"), req.Checkpoint); err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.WorkersView())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	return mux
}

// handleEvents streams a job's JSONL flight-recorder events: the full
// history first, then live lines as tasks emit them, until the job
// settles or the client goes away. Each line is flushed immediately
// (the recorder runs with Sync on), so watchers see progress in real
// time.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var h *hub
	var eventsPath string
	if ok {
		h = j.hub
		eventsPath = j.eventsPath()
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, ErrNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if h == nil {
		// Reloaded job with no live leg: serve the persisted stream.
		data, err := os.ReadFile(eventsPath)
		if err != nil {
			httpError(w, err)
			return
		}
		w.Write(data)
		return
	}
	flusher, _ := w.(http.Flusher)
	h.follow(r.Context(), func(chunk []byte) error {
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

// Slots re-exports the fault-batch width partitioning aligns to, for
// callers sizing partitions without importing internal/sim.
const Slots = sim.Slots
