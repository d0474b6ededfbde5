package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/circuits"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/logic"
	"repro/internal/scan"
)

const (
	// scandClients closed-loop clients, one per tenant, each cycle
	// through jobsPerClient job specs; one pass over every client's
	// list is a round.
	scandClients  = 2
	jobsPerClient = 12
	roundJobs     = scandClients * jobsPerClient
	// fleetPoll is the workers' fixed idle claim poll; the default
	// 250ms would dominate closed-loop turnaround.
	fleetPoll = 5 * time.Millisecond
	// leaseTTL is short enough that longer tasks heartbeat (every
	// TTL/3) and long enough that a busy host does not expire leases.
	leaseTTL = 1500 * time.Millisecond
	// jobsPerSecond sizes the timed section: together the clients run
	// jobsPerSecond jobs per requested second, somewhat below the rate
	// of the 2-vCPU reference host, so every run of a seed has the same
	// inputs and sample count. On a slower host the section stops after
	// one and a half times the requested seconds (see timedScand).
	jobsPerSecond = 20
	// simulateLen and compactLen are the random sequences' lengths: long
	// enough that coverage saturates, so the faults a round detects
	// hardly depend on the seed. Simulation is also the round's steady
	// share of CPU: the CPU the persistence syscalls cost on a shared
	// disk swings with the neighbours' load, and a longer simulate
	// sequence dilutes that swing in cpu_s while adding little to
	// turnaround, which service overhead still dominates.
	simulateLen = 4096
	compactLen  = 256
)

// scandSpecs is one client's job list: simulate, compact and generate
// jobs in turn on small catalog circuits with short sequences, each with
// its own seed derived from the workload seed.
func scandSpecs(seed uint64, client int) []jobs.Spec {
	tenant := fmt.Sprintf("tenant-%d", client)
	var out []jobs.Spec
	for i := 0; i < jobsPerClient; i++ {
		sp := jobs.Spec{Seed: jobSeed(seed, client, i), Tenant: tenant, Workers: 1}
		switch i % 3 {
		case 0:
			sp.Flow, sp.Circuits, sp.SeqLen, sp.Partitions = jobs.FlowSimulate, []string{"s298"}, simulateLen, 2
		case 1:
			sp.Flow, sp.Circuits, sp.SeqLen, sp.OmitShards = jobs.FlowCompact, []string{"s27"}, compactLen, 2
		case 2:
			sp.Flow, sp.Circuits, sp.SkipBaseline = jobs.FlowGenerate, []string{"s27"}, true
		}
		out = append(out, sp)
	}
	return out
}

// jobSeed derives a distinct, non-zero per-job seed (splitmix64).
func jobSeed(seed uint64, client, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(client)<<32 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// scandEnv is one running server with its HTTP front end and its
// lease-claiming workers, all in this process.
type scandEnv struct {
	srv     *jobs.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	stats   *httpStats
	cancel  context.CancelFunc
	workers sync.WaitGroup
}

// startScand starts a server over dir with no in-process workers,
// serves it on loopback, waits until /healthz answers, starts nproc
// lease-claiming workers, waits until each has made its first claim, and
// returns the environment with its set-up time.
func startScand(dir string, tr *tracer) (*scandEnv, time.Duration, error) {
	start := time.Now()
	srv, err := jobs.NewServer(jobs.Options{DataDir: filepath.Join(dir, "server"), Workers: -1, LeaseTTL: leaseTTL})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &scandEnv{srv: srv, served: make(chan struct{}), base: "http://" + ln.Addr().String(),
		stats: newHTTPStats(), cancel: cancel}
	e.hs = &http.Server{Handler: serverSpans(srv.Handler(), tr)}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	var rt http.RoundTripper = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	if tr != nil {
		rt = &clientSpans{base: rt, tr: tr, stats: e.stats}
	}
	e.client = &http.Client{Transport: rt}
	if err := e.waitHealthy(); err != nil {
		e.stop()
		return nil, 0, err
	}
	var ready sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		w, err := jobs.NewWorker(jobs.WorkerOptions{
			Server:  e.base,
			Name:    fmt.Sprintf("worker-%d", i),
			DataDir: filepath.Join(dir, fmt.Sprintf("worker-%d", i)),
			Poll:    fleetPoll,
			HTTP:    &http.Client{Transport: &firstClaim{base: rt, done: ready.Done}},
		})
		if err != nil {
			e.stop()
			return nil, 0, err
		}
		ready.Add(1)
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			w.Run(ctx)
		}()
	}
	ready.Wait()
	return e, time.Since(start), nil
}

func (e *scandEnv) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := e.client.Get(e.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scand did not answer /healthz: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop stops the workers, drains the server, closes the HTTP server and
// waits for every goroutine the environment started.
func (e *scandEnv) stop() {
	e.cancel()
	e.workers.Wait()
	e.srv.Drain()
	e.hs.Close()
	<-e.served
	e.client.CloseIdleConnections()
}

// firstClaim reports a worker's first completed claim request.
type firstClaim struct {
	base http.RoundTripper
	once sync.Once
	done func()
}

func (f *firstClaim) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.base.RoundTrip(req)
	if err == nil && routeOf(req) == "claim" {
		f.once.Do(f.done)
	}
	return resp, err
}

// jobSample is one job's closed-loop round trip.
type jobSample struct {
	client, idx int
	id          string
	turnaround  time.Duration
	err         error
	result      []byte
	events      []byte
	span        int
}

// clientLoop runs one closed-loop client: Submit → Watch → Result, one
// job after another, while more(i) allows the i-th job.
func clientLoop(e *scandEnv, specs []jobs.Spec, client int, tr *tracer, more func(i int) bool) []jobSample {
	api := &jobs.Client{Base: e.base, HTTP: e.client}
	var out []jobSample
	for i := 0; more(i); i++ {
		out = append(out, runJob(api, specs[i%len(specs)], tr, jobSample{client: client, idx: i % len(specs)}))
	}
	return out
}

func runJob(api *jobs.Client, sp jobs.Spec, tr *tracer, init jobSample) (s jobSample) {
	s = init
	ctx := context.Background()
	start := time.Now()
	var events io.Writer
	var buf *bytes.Buffer
	if tr != nil {
		s.span = tr.begin("job", "job", "", 0)
		ctx = withSpan(ctx, s.span)
		buf = &bytes.Buffer{}
		events = buf
		defer tr.end(s.span)
	}
	defer func() { s.turnaround = time.Since(start) }()
	st, err := api.Submit(ctx, sp)
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	s.id = st.ID
	if tr != nil {
		tr.setKey(s.span, st.ID)
	}
	final, err := api.Watch(ctx, st.ID, events)
	if err != nil {
		s.err = fmt.Errorf("watch %s: %w", st.ID, err)
		return s
	}
	if final.State != jobs.StateComplete {
		s.err = fmt.Errorf("job %s settled %s: %s", st.ID, final.State, final.Error)
		return s
	}
	if s.result, err = api.Result(ctx, st.ID); err != nil {
		s.err = fmt.Errorf("result %s: %w", st.ID, err)
	}
	if buf != nil {
		s.events = buf.Bytes()
	}
	return s
}

// drive runs the clients concurrently until each has finished the job
// it was running when the section ended.
func drive(e *scandEnv, seed uint64, tr *tracer, more func(i int) bool) []jobSample {
	var wg sync.WaitGroup
	res := make([][]jobSample, scandClients)
	for c := 0; c < scandClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res[c] = clientLoop(e, scandSpecs(seed, c), c, tr, more)
		}(c)
	}
	wg.Wait()
	var out []jobSample
	for _, r := range res {
		out = append(out, r...)
	}
	return out
}

// scandSection is one timed closed-loop section.
type scandSection struct {
	sec     *section
	samples []jobSample
	peak    float64
	tr      *tracer
	stats   *httpStats
}

// runScand runs the scand workload: set-up, a warm-up round whose
// results become the reference for every later job of the same spec, the
// timed section, then the output checks. The traced run adds a second
// timed section on a fresh server with tracing on.
func runScand(opt options, r *run) error {
	dir := filepath.Join(opt.out, "scand-data", fmt.Sprintf("%s-%d", opt.workload, os.Getpid()))
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.header.DataDirFS = fsType(dir)
	r.header.LeaseTTLMS = ms(leaseTTL)
	r.header.FleetPollMS = ms(fleetPoll)

	// Every start-up after the first is a restart over the data
	// directories the first one created, still empty. With fresh
	// directories, every mkdir on the shared disk cost about 1 ms of CPU
	// in some runs, which made set-up a reading of the disk.
	var setups []float64
	var e *scandEnv
	for begin := time.Now(); e == nil; {
		env, d, err := startScand(dir, nil)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if setupDone(len(setups), begin) {
			e = env
		} else {
			env.stop()
		}
	}
	ref := make(map[[2]int][]byte)
	warm := drive(e, opt.seed, nil, func(i int) bool { return i < jobsPerClient })
	checkJobs(r, warm, ref)
	untraced := timedScand(e, opt, nil)
	e.stop()
	r.noteSteal(untraced.sec)
	checkJobs(r, untraced.samples, ref)
	counts := scandCounts(opt.seed, r, ref)

	// The turnaround metrics are per-layer metrics (the service layer's
	// end-to-end view); an untraced run keeps them in its report.
	var turn []float64
	for _, s := range untraced.samples {
		turn = append(turn, ms(s.turnaround))
	}
	done := float64(len(untraced.samples))
	tl := tailOf(turn)
	r.detail["job_tail"] = tl
	r.detail["jobs"] = len(untraced.samples)
	r.set("jobs_per_s", done/untraced.sec.Wall.Seconds(), "jobs/s")
	r.set("job_p50_ms", median(turn), "ms")
	r.set("job_tail_ms", tl.Value, "ms")

	if opt.trace {
		tr := newTracer()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		te, _, err := startScand(dir, tr)
		if err != nil {
			return err
		}
		traced := timedScand(te, opt, tr)
		traced.stats = te.stats
		te.stop()
		checkJobs(r, traced.samples, ref)
		traceScand(r, untraced, traced)
		return checkDeterminism(opt, r, counts)
	}

	perRound := roundJobs / done
	r.detail["turnaround_ms"] = turn
	r.set("setup_s", median(setups), "s")
	r.detail["wall_s"] = untraced.sec.Wall.Seconds() * perRound
	r.set("cpu_s", untraced.sec.CPU.Seconds()*perRound, "s")
	r.set("peak_rss_mib", untraced.peak, "MiB")
	r.set("test_cycles", float64(counts["test_cycles"]), "cycles")
	r.set("detected_faults", float64(counts["detected_faults"]), "faults")
	return checkDeterminism(opt, r, counts)
}

// timedScand runs the clients' fixed job count for opt.seconds (see
// jobsPerSecond), or until one and a half times that has passed.
func timedScand(e *scandEnv, opt options, tr *tracer) scandSection {
	sec := beginSection()
	perClient := int(opt.seconds/time.Second) * jobsPerSecond / scandClients
	until := sec.start.Add(opt.seconds + opt.seconds/2)
	samples := drive(e, opt.seed, tr, func(i int) bool { return i < perClient && time.Now().Before(until) })
	sec.end()
	return scandSection{sec: sec, samples: samples, peak: peakRSSMiB(), tr: tr}
}

// checkJobs checks every job outside the timed section: it must have
// settled complete with a structurally valid result byte-identical to
// the first result of the same spec. Each job is one attempted
// operation.
func checkJobs(r *run, samples []jobSample, ref map[[2]int][]byte) {
	for _, s := range samples {
		r.attempted++
		if s.err != nil {
			r.fail("client %d job %d: %v", s.client, s.idx, s.err)
			continue
		}
		if err := validResult(s.result); err != nil {
			r.fail("%s: %v", s.id, err)
			continue
		}
		key := [2]int{s.client, s.idx}
		if want, ok := ref[key]; !ok {
			ref[key] = s.result
		} else if !bytes.Equal(want, s.result) {
			r.fail("%s: result differs from an earlier job of the same spec", s.id)
		}
	}
}

// validResult checks a job result's structure.
func validResult(data []byte) error {
	var res jobs.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return err
	}
	for _, s := range res.Simulate {
		n := 0
		for _, at := range s.DetectedAt {
			if at >= 0 {
				n++
			}
		}
		if n != s.Detected || len(s.DetectedAt) != s.Faults {
			return fmt.Errorf("simulate %s: detected %d, %d of %d detected_at set", s.Circuit, s.Detected, n, len(s.DetectedAt))
		}
	}
	for _, c := range res.Compact {
		if len(c.Kept) != c.SeqLen || compact.CountKept(c.Kept) != c.CompactedLen {
			return fmt.Errorf("compact %s: kept mask of %d (%d kept) for seq_len %d, compacted_len %d",
				c.Circuit, len(c.Kept), compact.CountKept(c.Kept), c.SeqLen, c.CompactedLen)
		}
		if !(c.CompactedLen <= c.RestoredLen && c.RestoredLen <= c.SeqLen) {
			return fmt.Errorf("compact %s: lengths are not ordered", c.Circuit)
		}
	}
	for _, g := range res.Generate {
		if !g.Status.Done() {
			return fmt.Errorf("generate %s: status %v", g.Circ, g.Status)
		}
	}
	if len(res.Simulate)+len(res.Compact)+len(res.Generate) == 0 {
		return errors.New("empty result")
	}
	return nil
}

// scandCounts recomputes every spec's reference result in process —
// jobs.ShardedDetect, compact.ChunkedRestoreThenOmit, core.RunGenerate —
// compares it field for field, and sums one round's final sequence
// lengths and detected faults.
func scandCounts(seed uint64, r *run, ref map[[2]int][]byte) map[string]int64 {
	counts := make(map[string]int64)
	for c := 0; c < scandClients; c++ {
		for i, sp := range scandSpecs(seed, c) {
			r.attempted++
			data, ok := ref[[2]int{c, i}]
			if !ok {
				r.fail("client %d spec %d: no completed job to check", c, i)
				continue
			}
			var res jobs.Result
			if err := json.Unmarshal(data, &res); err != nil {
				r.fail("client %d spec %d: %v", c, i, err)
				continue
			}
			cycles, det, err := recompute(sp, res)
			if err != nil {
				r.fail("client %d spec %d (%s): in-process recompute: %v", c, i, sp.Flow, err)
				continue
			}
			counts["test_cycles"] += int64(cycles)
			counts["detected_faults"] += int64(det)
		}
	}
	return counts
}

// recompute runs one spec in process and compares it with the job's
// result, returning the final sequence length and detected faults.
func recompute(sp jobs.Spec, res jobs.Result) (cycles, detected int, err error) {
	name := sp.Circuits[0]
	switch sp.Flow {
	case jobs.FlowSimulate, jobs.FlowCompact:
		c, err := circuits.Load(name)
		if err != nil {
			return 0, 0, err
		}
		d, err := scan.Insert(c)
		if err != nil {
			return 0, 0, err
		}
		faults := fault.Universe(d.Scan, !sp.NoCollapse)
		seq := jobs.TestSequence(d, sp.Seed, sp.SeqLen)
		if sp.Flow == jobs.FlowSimulate {
			det := jobs.ShardedDetect(d.Scan, seq, faults, sp.Partitions, 1)
			n := 0
			for _, at := range det {
				if at >= 0 {
					n++
				}
			}
			want := jobs.SimResult{Circuit: name, SeqLen: sp.SeqLen, Faults: len(faults), Detected: n, DetectedAt: det}
			if len(res.Simulate) != 1 {
				return 0, 0, fmt.Errorf("%d simulate rows", len(res.Simulate))
			}
			if diff := diffRows(want, res.Simulate[0]); len(diff) > 0 {
				return 0, 0, fmt.Errorf("fields %v differ", diff)
			}
			return sp.SeqLen, n, nil
		}
		restored, omitted, rst, ost, err := compact.ChunkedRestoreThenOmit(d.Scan, seq, faults,
			compact.Options{Workers: 1}, sp.OmitShards)
		if err != nil {
			return 0, 0, err
		}
		if len(res.Compact) != 1 {
			return 0, 0, fmt.Errorf("%d compact rows", len(res.Compact))
		}
		got := res.Compact[0]
		want := jobs.CompactResult{Circuit: name, SeqLen: sp.SeqLen, Faults: len(faults),
			TargetFaults: rst.TargetFaults, RestoredLen: len(restored), CompactedLen: len(omitted),
			ExtraDetected: rst.ExtraDetected + ost.ExtraDetected, Kept: got.Kept}
		if diff := diffRows(want, got); len(diff) > 0 {
			return 0, 0, fmt.Errorf("fields %v differ", diff)
		}
		kept, err := compact.ApplyMask(seq, got.Kept)
		if err != nil {
			return 0, 0, err
		}
		if !sameSequence(kept, omitted) {
			return 0, 0, errors.New("kept mask does not reproduce the compacted sequence")
		}
		return got.CompactedLen, got.TargetFaults + got.ExtraDetected, nil
	case jobs.FlowGenerate:
		cfg := core.DefaultConfig()
		cfg.Seed, cfg.Workers, cfg.SkipBaseline = sp.Seed, sp.Workers, sp.SkipBaseline
		row, _, err := core.RunGenerate(name, cfg)
		if err != nil {
			return 0, 0, err
		}
		if len(res.Generate) != 1 {
			return 0, 0, fmt.Errorf("%d generate rows", len(res.Generate))
		}
		if diff := diffRows(row, res.Generate[0]); len(diff) > 0 {
			return 0, 0, fmt.Errorf("fields %v differ", diff)
		}
		return row.OmitLen, row.Detected + row.ExtDet, nil
	}
	return 0, 0, fmt.Errorf("unknown flow %q", sp.Flow)
}

func sameSequence(a, b logic.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// scandSetupLayer estimates one round's set-up layer time: every task
// (and every simulate submit, which sizes its shards) loads its circuit,
// inserts scan and builds the fault universe. Each circuit's cost is
// timed here, setupReps times, and multiplied by its loads per round.
func scandSetupLayer() [3]float64 {
	loads := make(map[string]int)
	for c := 0; c < scandClients; c++ {
		for _, sp := range scandSpecs(1, c) {
			n := 1
			switch sp.Flow {
			case jobs.FlowSimulate:
				n = sp.Partitions + 1
			case jobs.FlowCompact:
				n = sp.OmitShards + 1
			}
			loads[sp.Circuits[0]] += n
		}
	}
	var out [3]float64
	for name, n := range loads {
		var reps [3][]float64
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			c, err := circuits.Load(name)
			if err != nil {
				return out
			}
			t1 := time.Now()
			d, err := scan.Insert(c)
			if err != nil {
				return out
			}
			t2 := time.Now()
			fault.Universe(d.Scan, true)
			t3 := time.Now()
			reps[0] = append(reps[0], t1.Sub(t0).Seconds())
			reps[1] = append(reps[1], t2.Sub(t1).Seconds())
			reps[2] = append(reps[2], t3.Sub(t2).Seconds())
		}
		for k := range out {
			out[k] += float64(n) * median(reps[k])
		}
	}
	return out
}
