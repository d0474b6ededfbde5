package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sim"
)

// The worker-claim protocol is the only way a task runs: the server's
// in-process workers claim through localClaims, scanworker processes on
// other machines through the HTTP API, and both take the same lease. A
// claim leases one task under a TTL; the worker heartbeats to renew,
// uploading its current checkpoint bytes so the server always holds the
// task's latest resumable state. A worker that stops heartbeating —
// crashed, killed, partitioned — loses the lease to the janitor, which
// re-queues the task marked retried: the next claimant resumes from the
// uploaded checkpoint, and because every engine's resume is
// bit-identical, the job's final result is byte-identical to one
// computed without the crash. Late uploads under a reclaimed lease get
// ErrLeaseGone (HTTP 410) and are discarded, so a slow-but-alive worker
// can never double-report a task.

// lease is one claimed task's server-side record.
type lease struct {
	token   string
	worker  string
	t       *task
	expires time.Time
	// cancel ends the lease's context, which is derived from the job's:
	// a cancel, a drain or the job's budget reaches a local assignment
	// running under it the moment it happens, and dropping the lease
	// stops the task too.
	cancel context.CancelFunc
	// local marks an in-process worker's lease. Closing the leg cancels
	// it but waits for its report instead of writing it off.
	local bool
}

// claimRequest is the claim endpoint's body.
type claimRequest struct {
	Worker string `json:"worker"`
}

// leaseUpdate is the heartbeat/release body: optional checkpoint bytes
// (JSON base64) persisted to the task's server-side store.
type leaseUpdate struct {
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// resultUpload is the result endpoint's body.
type resultUpload struct {
	Result     *taskResult `json:"result"`
	Checkpoint []byte      `json:"checkpoint,omitempty"`
}

// decodeResultUpload decodes a result endpoint body. A body that does
// not decode or carries no result is a *SpecError (HTTP 400).
func decodeResultUpload(body io.Reader) (*resultUpload, error) {
	var req resultUpload
	if err := decodeBody(body, &req); err != nil {
		return nil, err
	}
	if req.Result == nil {
		return nil, &SpecError{Field: "result", Reason: "missing"}
	}
	return &req, nil
}

// Assignment is a leased task's self-contained work order: everything a
// worker with no access to the server's data directory needs to run the
// task and nothing else. Checkpoint carries the task's current
// server-side store (its own interrupted state, or for an omission
// chunk the predecessor chunk's final checkpoint); RestoredKept carries
// the compact flow's restoration mask.
type Assignment struct {
	Lease string `json:"lease"`
	TTLMS int64  `json:"ttl_ms"`
	Job   string `json:"job"`
	Task  int    `json:"task"`
	Name  string `json:"name"`
	Spec  Spec   `json:"spec"`

	Circuit    string `json:"circuit"`
	ShardStart int    `json:"shard_start,omitempty"`
	ShardEnd   int    `json:"shard_end,omitempty"`
	// Chunk is the omission chunk index; -1 for every non-chunk task.
	Chunk        int    `json:"chunk"`
	RestoredKept string `json:"restored_kept,omitempty"`

	Checkpoint []byte `json:"checkpoint,omitempty"`
	Resume     bool   `json:"resume"`
	// StopAfterPolls/TimeoutMS are the task-effective budget values:
	// the initial-leg interrupt hook and the job's remaining wall clock.
	StopAfterPolls int64 `json:"stop_after_polls,omitempty"`
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`

	// ctx and rec are set on local assignments only: the lease's
	// context, and the job's recorder, which takes the task's engine
	// events.
	ctx context.Context
	rec obs.Observer
}

// ttl returns the lease TTL the worker must heartbeat within.
func (a *Assignment) ttl() time.Duration {
	if a.TTLMS <= 0 {
		return 3 * time.Second
	}
	return time.Duration(a.TTLMS) * time.Millisecond
}

// requestCtx bounds one lease request (heartbeat, result or release) by
// the lease TTL. Once the TTL has passed the server may reclaim the
// lease anyway, so a server that stops answering cannot hold the worker
// any longer than that.
func (a *Assignment) requestCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), a.ttl())
}

// ClaimTask leases the next claimable task to a remote worker. A nil
// Assignment (and nil error) means the queue has nothing claimable
// right now.
func (s *Server) ClaimTask(worker string) (*Assignment, error) {
	if worker == "" {
		return nil, &SpecError{Field: "worker", Reason: "empty worker name"}
	}
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil, ErrDraining
		}
		s.mu.Unlock()
		t, ok := s.q.tryPop()
		if !ok {
			return nil, nil
		}
		if a := s.leaseTask(worker, t, false); a != nil {
			return a, nil
		}
		// The claimed task belonged to a closed or finished leg; its
		// quota slot was returned — keep scanning.
	}
}

// errQueueClosed tells an in-process worker that Drain closed the queue:
// no task will come, so it leaves Run.
var errQueueClosed = errors.New("jobs: queue closed")

// localClaims is the claim API of the server's in-process workers: the
// leases remote workers take over HTTP, without the wire. Claim blocks
// until a task is claimable.
type localClaims struct{ s *Server }

func (c localClaims) Claim(_ context.Context, worker string) (*Assignment, error) {
	for {
		t, ok := c.s.q.pop()
		if !ok {
			return nil, errQueueClosed
		}
		if hook := c.s.testTaskStart; hook != nil {
			hook(t)
		}
		if a := c.s.leaseTask(worker, t, true); a != nil {
			return a, nil
		}
	}
}

func (c localClaims) Heartbeat(_ context.Context, token string, ckpt []byte) (time.Duration, error) {
	return c.s.HeartbeatLease(token, ckpt)
}

func (c localClaims) CompleteClaim(_ context.Context, token string, res *taskResult, ckpt []byte) error {
	return c.s.CompleteLease(token, res, ckpt)
}

func (c localClaims) ReleaseClaim(_ context.Context, token string, ckpt []byte) error {
	return c.s.ReleaseLease(token, ckpt)
}

// leaseTask registers a lease for a popped task and builds its
// Assignment: every rule of how a task runs — resume, the interrupt
// hook, the remaining budget, the checkpoint it starts from — is
// decided here, for local and remote workers alike. It returns nil
// (releasing the quota slot) when the task is no longer runnable.
func (s *Server) leaseTask(worker string, t *task, local bool) *Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := t.job
	tenant := j.status.Spec.Tenant
	ts := &j.status.Tasks[t.idx]
	if ts.Done || j.legClosed {
		s.q.release(tenant)
		return nil
	}
	sp := &j.status.Spec
	a := &Assignment{
		TTLMS:      s.leaseTTL.Milliseconds(),
		Job:        j.status.ID,
		Task:       t.idx,
		Name:       ts.Name,
		Spec:       j.status.clone().Spec,
		Circuit:    t.circuit,
		ShardStart: t.shard.Start,
		ShardEnd:   t.shard.End,
		Chunk:      t.chunk,
	}
	// Compact tasks always resume: their store may hold a predecessor
	// chunk's checkpoint even on the initial leg, and an empty store is
	// simply a fresh start. The deterministic-interrupt hook fires on
	// the initial leg only, never on a resumed leg or a reclaimed
	// task's re-run, so those can run to completion.
	resume := j.resumeLeg || t.retried
	a.Resume = resume || sp.Flow == FlowCompact
	if !resume {
		a.StopAfterPolls = sp.StopAfterPolls
	}
	if deadline, ok := j.ctx.Deadline(); ok {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		a.TimeoutMS = ms
	}
	fail := func(what string, err error) *Assignment {
		s.q.release(tenant)
		j.taskFinishedLocked(t.idx, &taskResult{Status: runctl.Failed, Error: what + ": " + err.Error()})
		return nil
	}
	if t.chunk >= 0 {
		var rr taskResult
		if err := readJSONFile(j.taskResultPath(t.restoreIdx), &rr); err != nil {
			return fail("restore result", err)
		}
		a.RestoredKept = rr.Kept
	}
	ckpt, err := os.ReadFile(j.ckptPath(t.idx))
	if errors.Is(err, fs.ErrNotExist) && t.chunk > 0 {
		// A chunk with no checkpoint of its own starts where its
		// predecessor's final checkpoint left the omission grid.
		ckpt, err = os.ReadFile(j.ckptPath(t.deps[0]))
	}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fail("checkpoint", err)
	}
	a.Checkpoint = ckpt
	ts.Started = true
	if j.status.State == StateQueued {
		j.status.State = StateRunning
	}
	s.leaseSeq++
	a.Lease = fmt.Sprintf("lease-%06d", s.leaseSeq)
	ctx, cancel := context.WithCancel(j.ctx)
	s.leases[a.Lease] = &lease{
		token:   a.Lease,
		worker:  worker,
		t:       t,
		expires: s.testNow().Add(s.leaseTTL),
		cancel:  cancel,
		local:   local,
	}
	if local {
		a.ctx, a.rec = ctx, j.rec
	}
	// Started and running are not written to job.json: no restart reads
	// them (loadExisting suspends the job, openLeg resets Started).
	j.rec.Event("job", "task_claimed",
		obs.F("task", ts.Name), obs.F("worker", worker), obs.F("lease", a.Lease))
	return a
}

// dropLeaseLocked deletes a lease and cancels its context. Called with
// the server lock held.
func (s *Server) dropLeaseLocked(l *lease) {
	delete(s.leases, l.token)
	l.cancel()
}

// HeartbeatLease renews a lease and persists the worker's uploaded
// checkpoint bytes, returning the TTL the worker should heartbeat
// within. ErrLeaseGone tells the worker the task was reclaimed.
func (s *Server) HeartbeatLease(token string, ckpt []byte) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[token]
	if !ok {
		return 0, ErrLeaseGone
	}
	l.expires = s.testNow().Add(s.leaseTTL)
	if err := l.t.saveCheckpoint(ckpt); err != nil {
		return 0, err
	}
	return s.leaseTTL, nil
}

// CompleteLease accepts a leased task's final result (and final
// checkpoint bytes, which the next chunk of a compact chain consumes)
// and finishes the task. Every result, local or remote, enters here. A
// result that assembly could not use is a *SpecError (HTTP 400), and a
// failed checkpoint or result write is returned as is; either way
// nothing is recorded and the lease stays live.
func (s *Server) CompleteLease(token string, res *taskResult, ckpt []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[token]
	if !ok {
		return ErrLeaseGone
	}
	t := l.t
	j := t.job
	if err := j.checkResult(t, res); err != nil {
		return err
	}
	if err := t.saveCheckpoint(ckpt); err != nil {
		return err
	}
	if res.Status.Done() {
		if err := writeJSONFile(j.taskResultPath(t.idx), res); err != nil {
			return err
		}
	}
	s.dropLeaseLocked(l)
	j.rec.Event("job", "task_done",
		obs.F("task", j.status.Tasks[t.idx].Name),
		obs.F("status", res.Status.String()), obs.F("worker", l.worker))
	j.taskFinishedLocked(t.idx, res)
	s.q.release(j.status.Spec.Tenant)
	return nil
}

// checkResult rejects a done task's result that result assembly could
// not use: each flow's payload must be present and shaped to the task.
// A stopped or failed result carries no payload and passes.
func (j *job) checkResult(t *task, res *taskResult) error {
	if !res.Status.Done() {
		return nil
	}
	sp := &j.status.Spec
	switch sp.Flow {
	case FlowGenerate:
		if res.Generate == nil {
			return specErrf("result", "generate task without its row")
		}
	case FlowTranslate:
		if res.Translate == nil {
			return specErrf("result", "translate task without its row")
		}
	case FlowSimulate:
		if res.Faults != t.faults {
			return specErrf("result", "faults is %d, the fault universe has %d", res.Faults, t.faults)
		}
		if len(res.DetectedAt) != t.shard.Len() {
			return specErrf("result", "%d detected_at entries for a %d-fault shard", len(res.DetectedAt), t.shard.Len())
		}
		for _, at := range res.DetectedAt {
			if at != sim.NotDetected && (at < 0 || at >= sp.seqLen()) {
				return specErrf("result", "detected_at entry %d outside the %d-vector sequence", at, sp.seqLen())
			}
		}
	case FlowCompact:
		if t.chunk >= 0 && t.chunk < sp.omitShards()-1 {
			return nil // an intermediate chunk's deliverable is its checkpoint
		}
		if res.Compact == nil {
			return specErrf("result", "compact task without its stats")
		}
		if len(res.Kept) != sp.seqLen() || strings.Trim(res.Kept, "01") != "" {
			return specErrf("result", "kept mask is not %d 0s and 1s", sp.seqLen())
		}
	}
	return nil
}

// ReleaseLease hands a leased task back (graceful worker shutdown): the
// uploaded checkpoint is persisted and the task re-queued as retried,
// so the next claimant resumes where this worker stopped.
func (s *Server) ReleaseLease(token string, ckpt []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[token]
	if !ok {
		return ErrLeaseGone
	}
	if err := l.t.saveCheckpoint(ckpt); err != nil {
		return err
	}
	s.requeueLocked(l, "task_released")
	return nil
}

// requeueLocked takes a lease back from its worker and returns its
// task to the queue as retried. Only a local lease outlives the close
// of its leg; its task then reports here instead, as a stopped one.
// Called with the server lock held.
func (s *Server) requeueLocked(l *lease, event string) {
	s.dropLeaseLocked(l)
	defer s.q.release(l.t.job.status.Spec.Tenant)
	t := l.t
	j := t.job
	ts := &j.status.Tasks[t.idx]
	ts.Started = false
	t.retried = true
	j.rec.Event("job", event,
		obs.F("task", ts.Name), obs.F("worker", l.worker), obs.F("lease", l.token))
	if j.legClosed {
		j.reportedLocked()
		return
	}
	if !ts.Done {
		s.q.push(t)
	}
}

// dropJobLeasesLocked writes off every remote lease of one job (cancel
// or drain closing the leg) and returns how many tasks it wrote off: a
// remote worker gets 410 Gone at its next heartbeat and may never
// report back, so the leg cannot wait on it. A local lease stays; its
// context is canceled with the job's, and its task reports once it
// stops. Called with the server lock held.
func (s *Server) dropJobLeasesLocked(j *job) int {
	n := 0
	for _, l := range s.leases {
		if l.t.job != j || l.local {
			continue
		}
		s.dropLeaseLocked(l)
		s.q.release(j.status.Spec.Tenant)
		n++
	}
	return n
}

// janitor reclaims expired leases until Drain stops it.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := s.leaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-ticker.C:
			s.reclaimExpired()
		}
	}
}

// reclaimExpired re-queues every task whose lease ran out of heartbeat.
func (s *Server) reclaimExpired() {
	now := s.testNow()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.leases {
		if l.expires.After(now) {
			continue
		}
		s.requeueLocked(l, "task_reclaimed")
	}
}

// WorkerInfo is one live lease in the fleet view.
type WorkerInfo struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
	Job    string `json:"job"`
	Task   string `json:"task"`
	// ExpiresMS is how long until the lease is reclaimed without a
	// heartbeat.
	ExpiresMS int64 `json:"expires_ms"`
}

// WorkersView lists the live leases of in-process and remote workers,
// newest last — the fleet half of `scanctl top`.
func (s *Server) WorkersView() []WorkerInfo {
	now := s.testNow()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerInfo, 0, len(s.leases))
	for _, l := range s.leases {
		out = append(out, WorkerInfo{
			Worker:    l.worker,
			Lease:     l.token,
			Job:       l.t.job.status.ID,
			Task:      l.t.job.status.Tasks[l.t.idx].Name,
			ExpiresMS: l.expires.Sub(now).Milliseconds(),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Lease < out[b].Lease })
	return out
}

// saveCheckpoint persists a worker's uploaded checkpoint bytes, if any,
// as the task's task-N.ckpt: the bytes are the task's only resumable
// state outside the worker.
func (t *task) saveCheckpoint(ckpt []byte) error {
	if len(ckpt) == 0 {
		return nil
	}
	return runctl.WriteFile(t.job.ckptPath(t.idx), ckpt)
}
