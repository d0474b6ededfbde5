package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/sim"
)

// task is one schedulable unit of a job: a whole circuit run
// (generate/translate flows), one fault shard of a circuit (simulate
// flow), or one stage of a circuit's compaction chain (compact flow:
// the restoration pass, then each omission window chunk). Workers —
// in-process or remote scanworker processes — lease tasks from the
// queue; tasks with no dependency between them carry disjoint work, so
// any number of workers can run one job concurrently, while a compact
// circuit's chain enqueues each link only when its predecessor
// completes.
type task struct {
	job     *job
	idx     int
	circuit string
	shard   sim.FaultRange // simulate flow only
	// faults is the circuit's fault-universe size (simulate flow only),
	// which a shard's uploaded result must match.
	faults int

	// chunk is the omission window-chunk index for compact-flow omit
	// tasks; -1 marks every other task (including the restore stage).
	chunk int
	// restoreIdx is the index of the circuit's restore task (compact
	// omit chunks only) — the task whose result carries the restored
	// kept mask.
	restoreIdx int
	// deps lists task indices that must complete before this task may
	// be claimed.
	deps []int
	// retried marks a task re-enqueued in the same leg after its
	// worker's lease expired: the re-run resumes from the reclaimed
	// checkpoint and must not re-fire deterministic-interrupt hooks.
	retried bool
}

// taskResult is the per-task deliverable, persisted as
// task-<idx>.result.json before the task is recorded done. Keeping task
// results on disk (not only in memory) makes jobs resumable across
// server restarts: a resume leg re-runs only the unfinished tasks and
// reassembles the rest from these files.
type taskResult struct {
	Status    runctl.Status      `json:"status"`
	Error     string             `json:"error,omitempty"`
	Generate  *core.GenerateRow  `json:"generate,omitempty"`
	Translate *core.TranslateRow `json:"translate,omitempty"`
	// DetectedAt is a simulate shard's detection vector, keyed by
	// position within the shard's fault range.
	DetectedAt []int `json:"detected_at,omitempty"`
	// Faults is the shard's circuit-wide fault-universe size, pinned so
	// result assembly never depends on re-deriving it.
	Faults int `json:"faults,omitempty"`
	// Kept is a compact-flow kept mask over the input sequence: the
	// restore task's restoration mask, or the final omit chunk's fully
	// compacted mask (restoration ∘ omission). Omit chunks read their
	// circuit's restore-task Kept to rebuild the restored sequence.
	Kept string `json:"kept,omitempty"`
	// Compact carries a compact-flow stage's semantic stats.
	Compact *compactTaskStats `json:"compact,omitempty"`
}

// compactTaskStats is the deterministic, scheduling-free part of a
// compaction stage's Stats — what result assembly folds into the job's
// CompactResult rows. Work accounting (Simulations, BatchSteps) stays
// out: chunked runs re-simulate per chunk, so it is the one part of
// Stats that legitimately varies with omit_shards.
type compactTaskStats struct {
	TargetFaults int `json:"target_faults,omitempty"`
	RestoredLen  int `json:"restored_len,omitempty"`
	RestoreExtra int `json:"restore_extra,omitempty"`
	CompactedLen int `json:"compacted_len,omitempty"`
	OmitExtra    int `json:"omit_extra,omitempty"`
}

// job is the server-side state of one submission. All mutable fields
// are guarded by the owning Server's mutex; Spec and the task list are
// immutable after submit.
type job struct {
	srv *Server
	dir string

	status    Status
	tasks     []*task
	pending   int    // enqueued-or-running tasks not yet reported this leg
	enq       []bool // per-task: enqueued at least once this leg
	canceled  bool   // explicit cancel request (vs. budget/drain stop)
	legClosed bool   // no further task of this leg may start
	resumeLeg bool

	ctx    context.Context
	cancel context.CancelFunc

	rec        *obs.Recorder
	eventsFile *os.File
	hub        *hub
}

func (j *job) eventsPath() string { return filepath.Join(j.dir, "events.jsonl") }
func (j *job) statusPath() string { return filepath.Join(j.dir, "job.json") }
func (j *job) resultPath() string { return filepath.Join(j.dir, "result.json") }
func (j *job) ckptPath(i int) string {
	return filepath.Join(j.dir, fmt.Sprintf("task-%d.ckpt", i))
}
func (j *job) taskResultPath(i int) string {
	return filepath.Join(j.dir, fmt.Sprintf("task-%d.result.json", i))
}

// buildTasks expands a validated spec into its task list: one task per
// circuit, one per (circuit, fault shard) for the simulate flow, or a
// restore-then-omit-chunks chain per circuit for the compact flow.
// Simulate partitioning needs each circuit's fault-universe size, so
// the circuits are instantiated here once, at submit time.
func buildTasks(j *job) error {
	sp := &j.status.Spec
	for _, name := range sp.Circuits {
		switch sp.Flow {
		case FlowSimulate:
			_, faults, err := simWorkload(name, sp)
			if err != nil {
				return err
			}
			for i, r := range sim.PartitionFaults(len(faults), sp.partitions()) {
				taskName := name
				if sp.partitions() > 1 {
					taskName = fmt.Sprintf("%s/shard-%d", name, i)
				}
				j.addTask(taskName, name, r).faults = len(faults)
			}
		case FlowCompact:
			// The chain: restoration first, then each omission window
			// chunk depending on its predecessor. Chunk k is assigned
			// chunk k-1's final checkpoint until it has one of its own,
			// so any worker continues the grid exactly where the
			// previous chunk left it.
			ri := j.addTask(name+"/restore", name, sim.FaultRange{}).idx
			prev := ri
			for k := 0; k < sp.omitShards(); k++ {
				t := j.addTask(fmt.Sprintf("%s/omit-%d", name, k), name, sim.FaultRange{})
				t.chunk = k
				t.restoreIdx = ri
				t.deps = []int{prev}
				prev = t.idx
			}
		default:
			j.addTask(name, name, sim.FaultRange{})
		}
	}
	return nil
}

func (j *job) addTask(name, circuit string, r sim.FaultRange) *task {
	t := &task{job: j, idx: len(j.tasks), circuit: circuit, shard: r, chunk: -1}
	j.tasks = append(j.tasks, t)
	j.status.Tasks = append(j.status.Tasks, TaskStatus{Name: name})
	return t
}

// simWorkload instantiates the simulate flow's deterministic inputs for
// one circuit: the scan design and the fault universe — pure functions
// of the spec.
func simWorkload(name string, sp *Spec) (*scan.Circuit, []fault.Fault, error) {
	c, err := circuits.Load(name)
	if err != nil {
		return nil, nil, err
	}
	d, err := scan.Insert(c)
	if err != nil {
		return nil, nil, err
	}
	return d, fault.Universe(d.Scan, !sp.NoCollapse), nil
}

// openLeg starts one execution leg (initial or resume): job context
// with the spec's wall-clock budget, events file in append mode, a
// Sync recorder tee'd into the live hub, and the pending-task count.
// Called with the server lock held.
func (j *job) openLeg(resume bool) error {
	ctx, cancel := context.WithCancel(context.Background())
	if ms := j.status.Spec.TimeoutMS; ms > 0 {
		cancel()
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(ms)*time.Millisecond)
	}
	j.ctx, j.cancel = ctx, cancel
	j.resumeLeg = resume
	j.canceled = false
	j.legClosed = false

	// A crash or power loss mid-append can leave a torn final line;
	// drop it before this leg appends, and build the leg's hub from the
	// repaired file, so neither the file nor a watcher sees torn bytes.
	var repaired int64
	var err error
	if resume {
		if repaired, err = obs.RepairTail(j.eventsPath()); err != nil {
			cancel()
			return err
		}
	}
	history, err := os.ReadFile(j.eventsPath())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		cancel()
		return err
	}
	j.hub = newHub(history)
	f, err := os.OpenFile(j.eventsPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		cancel()
		return err
	}
	j.eventsFile = f
	j.rec = obs.NewRecorder(io.MultiWriter(f, j.hub), obs.RecorderOptions{
		Program: "scand", Resumed: resume, Sync: true,
	})
	if repaired > 0 {
		j.rec.Event("obs", "tail_repaired", obs.F("bytes", repaired))
	}

	j.pending = 0
	j.enq = make([]bool, len(j.tasks))
	for i := range j.status.Tasks {
		if !j.status.Tasks[i].Done {
			j.status.Tasks[i].Started = false
			j.status.Tasks[i].Status = runctl.Complete
			j.status.Tasks[i].Error = ""
		}
		j.tasks[i].retried = false
	}
	j.status.Finished = ""
	j.status.Error = ""
	j.status.Resumable = false
	j.status.State = StateQueued
	return nil
}

// enqueueLocked pushes every ready task onto the server queue in one
// queue operation, so a worker cannot claim one of a job's tasks before
// the rest have arrived. A task is ready when it is unfinished, not yet
// enqueued this leg, every dependency is complete, and the leg is still
// open: a task blocked on an unfinished dependency is enqueued later,
// when its predecessor completes. pending counts only enqueued tasks —
// dependents of a task that stops short of completion are never
// enqueued and never counted, so the leg settles (suspended, resumable)
// the moment every task that could run has reported. Called with the
// server lock held.
func (j *job) enqueueLocked() {
	if j.legClosed {
		return
	}
	var ready []*task
outer:
	for i, t := range j.tasks {
		if j.enq[i] || j.status.Tasks[i].Done {
			continue
		}
		for _, d := range t.deps {
			if !j.status.Tasks[d].Done {
				continue outer
			}
		}
		j.enq[i] = true
		ready = append(ready, t)
	}
	j.pending += len(ready)
	j.srv.q.push(ready...)
}

// executeFlow runs one task from plain inputs, with no job or server
// state. Worker.runAssignment is its one caller, for in-process and
// remote workers alike.
func executeFlow(sp *Spec, circuit string, shard sim.FaultRange, chunk int, restoredKept string, ctl *runctl.Control, rec obs.Observer) *taskResult {
	switch sp.Flow {
	case FlowGenerate, FlowTranslate:
		cfg := core.Config{
			Seed:           sp.seed(),
			Collapse:       !sp.NoCollapse,
			Chains:         sp.Chains,
			Workers:        sp.Workers,
			Order:          sp.order(),
			SkipBaseline:   sp.SkipBaseline,
			SkipCompaction: sp.SkipCompaction,
			Control:        ctl,
			Obs:            rec,
		}
		if sp.Flow == FlowGenerate {
			row, _, err := core.RunGenerate(circuit, cfg)
			return flowResult(row.Status, err, &taskResult{Generate: &row})
		}
		row, _, err := core.RunTranslate(circuit, cfg)
		return flowResult(row.Status, err, &taskResult{Translate: &row})
	case FlowSimulate:
		d, faults, err := simWorkload(circuit, sp)
		if err != nil {
			return &taskResult{Status: runctl.Failed, Error: err.Error()}
		}
		seq := TestSequence(d, sp.seed(), sp.seqLen())
		s := sim.NewSimulator(d.Scan, sp.Workers)
		s.Observe(rec)
		res := RunShard(s, seq, faults, shard, sim.Options{Control: ctl})
		out := &taskResult{Status: res.Status, DetectedAt: res.DetectedAt, Faults: len(faults)}
		if res.Err != nil {
			out.Error = res.Err.Error()
			out.Status = runctl.Failed
		}
		return out
	case FlowCompact:
		return executeCompact(sp, circuit, chunk, restoredKept, ctl, rec)
	}
	return &taskResult{Status: runctl.Failed, Error: "jobs: unknown flow " + sp.Flow}
}

// flowResult normalizes a core flow's (status, err) pair.
func flowResult(st runctl.Status, err error, res *taskResult) *taskResult {
	res.Status = st
	if err != nil {
		res.Status = runctl.Failed
		res.Error = err.Error()
	}
	return res
}

// taskFinishedLocked records one task's outcome (a done task's result
// file is already written), enqueues any dependents the completion
// unblocked, and settles the job when it was the last reporting task of
// the leg. A stopped task's partial state stays in task-<idx>.ckpt for
// the next resume leg. Called with the server lock held.
func (j *job) taskFinishedLocked(idx int, res *taskResult) {
	ts := &j.status.Tasks[idx]
	ts.Status = res.Status
	ts.Error = res.Error
	if res.Status.Done() {
		ts.Done = true
		j.enqueueLocked()
	}
	j.persistStatusLocked()
	j.reportedLocked()
}

// reportedLocked counts one enqueued task as reported for this leg and
// settles the leg when it was the last. Called with the server lock
// held.
func (j *job) reportedLocked() {
	j.pending--
	if j.pending == 0 {
		j.settleLocked()
	}
}

// closeLegLocked marks the leg closed (no unclaimed task may start),
// cancels the job context so in-flight tasks checkpoint and stop, and
// settles immediately when nothing is in flight. Used by cancel and
// drain; callers must first make the queued tasks unclaimable (queue
// removal or queue close). Called with the server lock held.
func (j *job) closeLegLocked() {
	if j.status.State.Terminal() || j.legClosed {
		j.legClosed = true
		return
	}
	j.legClosed = true
	j.cancel()
	// Write off enqueued-but-unclaimed tasks (the caller already made
	// them unclaimable) and remotely leased ones, whose checkpoints stay
	// for the next leg.
	unclaimed := 0
	for i := range j.status.Tasks {
		ts := &j.status.Tasks[i]
		if j.enq[i] && !ts.Done && !ts.Started {
			unclaimed++
		}
	}
	j.pending -= unclaimed + j.srv.dropJobLeasesLocked(j)
	if j.pending <= 0 {
		j.pending = 0
		j.settleLocked()
	}
	// Otherwise in-flight local tasks observe the cancellation at their
	// next poll and report through CompleteLease, with their
	// checkpoints; the last one settles the leg.
}

// settleLocked closes out the current leg once no task remains
// reporting.
func (j *job) settleLocked() {
	allDone, anyFailed := true, false
	firstErr := ""
	for i := range j.status.Tasks {
		ts := &j.status.Tasks[i]
		allDone = allDone && ts.Done
		if ts.Status == runctl.Failed {
			anyFailed = true
			if firstErr == "" {
				firstErr = fmt.Sprintf("task %s: %s", ts.Name, ts.Error)
			}
		}
	}
	switch {
	case anyFailed:
		j.status.State = StateFailed
		j.status.Error = firstErr
	case allDone:
		j.status.State = StateComplete
		if err := j.assembleResultLocked(); err != nil {
			j.status.State = StateFailed
			j.status.Error = "assemble result: " + err.Error()
		}
	case j.canceled:
		j.status.State = StateCanceled
		j.status.Resumable = true
	default:
		j.status.State = StateSuspended
		j.status.Resumable = true
	}
	j.status.Finished = nowRFC3339()
	j.rec.Event("job", "settled", obs.F("state", string(j.status.State)))
	j.rec.Close()
	j.eventsFile.Close()
	j.hub.close()
	j.cancel()
	j.persistStatusLocked()
}

// assembleResultLocked builds the deterministic result from the
// persisted per-task results, in spec circuit order, and writes
// result.json. Shard results merge through MergeShard into per-circuit
// detection vectors identical to an unsharded run's.
func (j *job) assembleResultLocked() error {
	sp := &j.status.Spec
	res := Result{Flow: sp.Flow}
	switch sp.Flow {
	case FlowSimulate:
		byCircuit := make(map[string]*SimResult)
		for _, name := range sp.Circuits {
			byCircuit[name] = &SimResult{Circuit: name, SeqLen: sp.seqLen()}
		}
		for i, t := range j.tasks {
			var tr taskResult
			if err := readJSONFile(j.taskResultPath(i), &tr); err != nil {
				return err
			}
			sr := byCircuit[t.circuit]
			if sr.DetectedAt == nil {
				sr.Faults = tr.Faults
				sr.DetectedAt = make([]int, tr.Faults)
			}
			MergeShard(sr.DetectedAt, t.shard, tr.DetectedAt)
		}
		// Count per circuit, not per listing: a circuit listed twice
		// shares one SimResult.
		for _, sr := range byCircuit {
			for _, at := range sr.DetectedAt {
				if at != sim.NotDetected {
					sr.Detected++
				}
			}
		}
		for _, name := range sp.Circuits {
			res.Simulate = append(res.Simulate, *byCircuit[name])
		}
	case FlowCompact:
		// Per circuit: the restore task's result carries the restoration
		// stats, the final omit chunk's carries the compacted mask and
		// omission stats. Intermediate chunks contribute nothing — their
		// whole output is the checkpoint the next chunk consumed — so
		// the assembled result is independent of omit_shards by
		// construction.
		stride := 1 + sp.omitShards()
		for ci, name := range sp.Circuits {
			var rr, fr taskResult
			if err := readJSONFile(j.taskResultPath(ci*stride), &rr); err != nil {
				return err
			}
			if err := readJSONFile(j.taskResultPath(ci*stride+stride-1), &fr); err != nil {
				return err
			}
			if rr.Compact == nil || fr.Compact == nil {
				return fmt.Errorf("compact results for %s are incomplete", name)
			}
			res.Compact = append(res.Compact, CompactResult{
				Circuit:       name,
				SeqLen:        sp.seqLen(),
				Faults:        rr.Faults,
				TargetFaults:  rr.Compact.TargetFaults,
				RestoredLen:   rr.Compact.RestoredLen,
				CompactedLen:  fr.Compact.CompactedLen,
				ExtraDetected: rr.Compact.RestoreExtra + fr.Compact.OmitExtra,
				Kept:          fr.Kept,
			})
		}
	default:
		for i := range j.tasks {
			var tr taskResult
			if err := readJSONFile(j.taskResultPath(i), &tr); err != nil {
				return err
			}
			if tr.Generate != nil {
				res.Generate = append(res.Generate, *tr.Generate)
			}
			if tr.Translate != nil {
				res.Translate = append(res.Translate, *tr.Translate)
			}
		}
	}
	return writeJSONFile(j.resultPath(), &res)
}

// persistStatusLocked writes job.json through runctl.WriteFile, so a
// crash or a power loss never leaves a torn record for startup to
// choke on. A failed write is logged, not returned: the in-memory
// status stays authoritative and the next transition writes it again.
func (j *job) persistStatusLocked() {
	if err := writeJSONFile(j.statusPath(), &j.status); err != nil {
		j.srv.logf("jobs: %s: persist status: %v", j.status.ID, err)
	}
}

// writeJSONFile writes v as indented JSON through runctl.WriteFile.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return runctl.WriteFile(path, append(data, '\n'))
}

// readJSONFile decodes one JSON file into v.
func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
