package jobs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runctl"
	"repro/internal/sim"
)

// WorkerOptions configures a remote worker process.
type WorkerOptions struct {
	// Server is the scand base URL, e.g. "http://10.0.0.5:8080".
	Server string
	// Name identifies the worker in leases, events and `scanctl top`.
	Name string
	// DataDir holds the worker's local checkpoint scratch files.
	DataDir string
	// Poll is the idle claim interval (0: 250ms).
	Poll time.Duration
	// HTTP overrides the HTTP client (tests).
	HTTP *http.Client
	// Logf, when set, receives the worker's progress log.
	Logf func(format string, args ...any)
}

// Worker is the claim side of the lease protocol: the engine behind
// cmd/scanworker and behind each of scand's in-process workers. It
// claims a task, runs it through executeFlow, heartbeats the lease with
// its current checkpoint bytes so a crash loses no more than one
// heartbeat interval of work, and uploads the result. On a 410 (lease
// reclaimed) it abandons the task; on shutdown it checkpoints and
// releases the task back to the queue.
type Worker struct {
	opts   WorkerOptions
	claims claimer
	logf   func(string, ...any)
}

// claimer is the claim API a Worker drains: *Client over HTTP for a
// remote worker, localClaims in memory for an in-process one.
type claimer interface {
	Claim(ctx context.Context, worker string) (*Assignment, error)
	Heartbeat(ctx context.Context, token string, ckpt []byte) (time.Duration, error)
	CompleteClaim(ctx context.Context, token string, res *taskResult, ckpt []byte) error
	ReleaseClaim(ctx context.Context, token string, ckpt []byte) error
}

// NewWorker builds a Worker that claims from the server at
// opts.Server.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Server == "" {
		return nil, errors.New("jobs: WorkerOptions.Server is required")
	}
	return newWorker(opts, &Client{Base: opts.Server, HTTP: opts.HTTP})
}

func newWorker(opts WorkerOptions, claims claimer) (*Worker, error) {
	if opts.Name == "" {
		return nil, errors.New("jobs: WorkerOptions.Name is required")
	}
	if opts.DataDir == "" {
		return nil, errors.New("jobs: WorkerOptions.DataDir is required")
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, err
	}
	if opts.Poll <= 0 {
		opts.Poll = 250 * time.Millisecond
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Worker{opts: opts, claims: claims, logf: logf}, nil
}

// Run claims and executes tasks until ctx is canceled. A task in flight
// at cancellation checkpoints, releases its lease and returns to the
// queue; Run then returns nil. An in-process worker also returns once
// the server's Drain has closed the queue.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		a, err := w.claims.Claim(ctx, w.opts.Name)
		switch {
		case errors.Is(err, errQueueClosed):
			return nil
		case err != nil:
			// Draining server, network blip: back off and retry.
			w.logf("claim: %v", err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return nil
			}
		case a == nil:
			if !sleepCtx(ctx, w.opts.Poll) {
				return nil
			}
		default:
			w.runAssignment(ctx, a)
		}
	}
}

func (w *Worker) ckptPath(a *Assignment) string {
	return filepath.Join(w.opts.DataDir, fmt.Sprintf("%s-task-%d.ckpt", a.Job, a.Task))
}

// runAssignment executes one leased task end to end.
func (w *Worker) runAssignment(ctx context.Context, a *Assignment) {
	w.logf("claimed %s %s (lease %s)", a.Job, a.Name, a.Lease)
	path := w.ckptPath(a)
	// The task starts from the assigned checkpoint alone and leaves no
	// generation of its local store behind.
	runctl.NewFileStore(path).Clear()
	defer runctl.NewFileStore(path).Clear()
	if len(a.Checkpoint) > 0 {
		if err := runctl.WriteFile(path, a.Checkpoint); err != nil {
			w.logf("seed checkpoint: %v", err)
			rctx, cancel := a.requestCtx()
			defer cancel()
			w.claims.ReleaseClaim(rctx, a.Lease, nil)
			return
		}
	}

	// The task context: canceled by worker shutdown or lease loss, and
	// bounded by the job's remaining wall-clock budget. A local
	// assignment runs under its lease's context, which is derived from
	// the job's, so a cancel or a drain reaches the task at once.
	parent := ctx
	if a.ctx != nil {
		parent = a.ctx
	}
	taskCtx, cancel := context.WithCancel(parent)
	if a.TimeoutMS > 0 {
		cancel()
		taskCtx, cancel = context.WithTimeout(parent, time.Duration(a.TimeoutMS)*time.Millisecond)
	}
	defer cancel()

	// Heartbeat until the task finishes, uploading the current
	// checkpoint so the server can reclaim mid-task progress. A 410
	// means the lease was reclaimed: stop working, the task is someone
	// else's now.
	var gone atomic.Bool
	hbStop := make(chan struct{})
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		ticker := time.NewTicker(a.ttl() / 3)
		defer ticker.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ticker.C:
				ckpt, _ := os.ReadFile(path)
				rctx, rcancel := a.requestCtx()
				_, err := w.claims.Heartbeat(rctx, a.Lease, ckpt)
				rcancel()
				if errors.Is(err, ErrLeaseGone) {
					gone.Store(true)
					cancel()
					return
				}
				if err != nil {
					w.logf("heartbeat: %v", err)
				}
			}
		}
	}()

	ctl := &runctl.Control{
		Budget: runctl.Budget{
			Ctx:            taskCtx,
			MaxAttempts:    a.Spec.MaxAttempts,
			MaxTrials:      a.Spec.MaxTrials,
			StopAfterPolls: a.StopAfterPolls,
		},
		Store:     runctl.NewFileStore(path),
		Resume:    a.Resume,
		SaveEvery: 8,
	}
	res := executeFlow(&a.Spec, a.Circuit,
		sim.FaultRange{Start: a.ShardStart, End: a.ShardEnd},
		a.Chunk, a.RestoredKept, ctl, a.rec)
	close(hbStop)
	hbDone.Wait()

	if gone.Load() {
		w.logf("lease %s reclaimed; abandoning %s %s", a.Lease, a.Job, a.Name)
		return
	}
	ckpt, _ := os.ReadFile(path)
	rctx, rcancel := a.requestCtx()
	defer rcancel()
	if ctx.Err() != nil && res.Status.Stopped() {
		// Shutdown: hand the task back with its checkpoint so another
		// worker continues instead of the job suspending.
		if err := w.claims.ReleaseClaim(rctx, a.Lease, ckpt); err != nil && !errors.Is(err, ErrLeaseGone) {
			w.logf("release: %v", err)
		}
		w.logf("released %s %s", a.Job, a.Name)
		return
	}
	if err := w.claims.CompleteClaim(rctx, a.Lease, res, ckpt); err != nil {
		if errors.Is(err, ErrLeaseGone) {
			w.logf("lease %s gone at upload; result discarded", a.Lease)
			return
		}
		w.logf("result upload: %v", err)
		return
	}
	w.logf("finished %s %s: %s", a.Job, a.Name, res.Status)
}

// sleepCtx sleeps d or until ctx cancels, reporting false on cancel.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
