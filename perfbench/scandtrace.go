package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// spanHeader carries the client span's ID to the server-side span.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// routeOf names a scand API request's route.
func routeOf(r *http.Request) string {
	p := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(p) == 1 && p[0] == "healthz":
		return "healthz"
	case len(p) == 2 && p[1] == "jobs" && r.Method == http.MethodPost:
		return "submit"
	case len(p) == 3 && p[1] == "jobs":
		return "get"
	case len(p) == 4 && p[1] == "jobs" && (p[3] == "events" || p[3] == "result"):
		return p[3]
	case len(p) == 3 && p[1] == "worker" && p[2] == "claim":
		return "claim"
	case len(p) == 5 && p[1] == "worker" && p[2] == "claims":
		if p[4] == "result" {
			return "upload"
		}
		return p[4]
	}
	return "other"
}

// jobOf is the job ID a request path names, if any.
func jobOf(r *http.Request) string {
	p := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if len(p) >= 3 && p[1] == "jobs" {
		return p[2]
	}
	return ""
}

// layerOf puts the long-lived event stream in its own layer: its span
// lasts as long as the job and would swamp the request layers.
func layerOf(route, layer string) string {
	if route == "events" {
		return "stream"
	}
	return layer
}

// serverSpans wraps the server's handler with a span per request,
// parented on the client span named in spanHeader. With no tracer it
// returns h unchanged.
func serverSpans(h http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := tr.begin("server."+route, layerOf(route, "server"), jobOf(r), parent)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// httpStats counts client requests by route, empty claims and the
// payload bytes of the lease routes.
type httpStats struct {
	mu         sync.Mutex
	requests   map[string]int
	emptyClaim int
	leaseBytes int64
}

func newHTTPStats() *httpStats { return &httpStats{requests: make(map[string]int)} }

func (s *httpStats) add(route string, status int, reqBytes, respBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests[route]++
	switch route {
	case "claim":
		s.leaseBytes += respBytes
		if status == http.StatusNoContent {
			s.emptyClaim++
		}
	case "heartbeat", "upload", "release":
		s.leaseBytes += reqBytes
	}
}

// clientSpans is the instrumented transport of the traced run's
// clients and fleet workers: a span per request, open until the
// response body is closed, parented on the job span in the request's
// context.
type clientSpans struct {
	base  http.RoundTripper
	tr    *tracer
	stats *httpStats
}

func (c *clientSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req)
	id := c.tr.begin("client."+route, layerOf(route, "client"), jobOf(req), spanFrom(req.Context()))
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := c.base.RoundTrip(out)
	if err != nil {
		c.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, close: func(n int64) {
		c.tr.end(id)
		c.stats.add(route, resp.StatusCode, req.ContentLength, n)
	}}
	return resp, nil
}

// spanBody closes its request's span when the body is closed.
type spanBody struct {
	io.ReadCloser
	n     int64
	once  sync.Once
	close func(n int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.close(b.n) })
	return err
}

// jobEvents is a job's lifecycle rebuilt from its events stream.
type jobEvents struct {
	submitted, settled time.Time
	tasks              []*taskEvents
	reclaims           int
	events             int
}

// taskEvents is one task's history: when it became claimable, and each
// attempt from start (or claim) to done, release or reclaim.
type taskEvents struct {
	name     string
	ready    []time.Time // one per attempt
	attempts []attempt
	done     time.Time
}

type attempt struct {
	start, end time.Time
	abandoned  bool
}

// parseEvents rebuilds a job's lifecycle from its JSONL events: the
// submitted, task_start or task_claimed, task_done, task_reclaimed or
// task_released, and settled stamps.
func parseEvents(data []byte) (*jobEvents, error) {
	ev := &jobEvents{}
	byName := make(map[string]*taskEvents)
	task := func(name string) *taskEvents {
		t, ok := byName[name]
		if !ok {
			t = &taskEvents{name: name}
			byName[name] = t
			ev.tasks = append(ev.tasks, t)
		}
		return t
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var ln obs.Line
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return nil, err
		}
		if ln.Type != "event" {
			continue
		}
		ev.events++
		if ln.Phase != "job" {
			continue
		}
		at, err := time.Parse(time.RFC3339Nano, ln.T)
		if err != nil {
			return nil, err
		}
		name, _ := ln.Fields["task"].(string)
		switch ln.Name {
		case "submitted":
			ev.submitted = at
		case "task_start", "task_claimed":
			t := task(name)
			t.attempts = append(t.attempts, attempt{start: at})
		case "task_done", "task_reclaimed", "task_released":
			t := task(name)
			if n := len(t.attempts); n > 0 {
				t.attempts[n-1].end = at
				t.attempts[n-1].abandoned = ln.Name != "task_done"
			}
			switch ln.Name {
			case "task_done":
				t.done = at
			case "task_reclaimed":
				ev.reclaims++
				fallthrough
			default:
				t.ready = append(t.ready, at)
			}
		case "settled":
			ev.settled = at
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// A task is claimable at submit, or when its predecessor in a
	// compact chain (restore, omit-0, omit-1, ...) is done.
	for _, t := range ev.tasks {
		first := ev.submitted
		if p, ok := byName[predecessor(t.name)]; ok {
			first = p.done
		}
		t.ready = append([]time.Time{first}, t.ready...)
	}
	return ev, nil
}

// predecessor names the task a compact chain link waits for: omit-0
// waits for restore, omit-k for omit-(k-1). Other tasks have none.
func predecessor(name string) string {
	circuit, last, ok := strings.Cut(name, "/")
	k, err := strconv.Atoi(strings.TrimPrefix(last, "omit-"))
	switch {
	case !ok || err != nil || !strings.HasPrefix(last, "omit-"):
		return ""
	case k == 0:
		return circuit + "/restore"
	}
	return circuit + "/omit-" + strconv.Itoa(k-1)
}

// spans turns the lifecycle into queue, task and settle spans under the
// job's span, with times from since.
func (ev *jobEvents) spans(since func(time.Time) float64, parent int, key string) []span {
	var out []span
	add := func(name, layer string, a, b time.Time) {
		if !a.IsZero() && !b.IsZero() {
			out = append(out, span{Parent: parent, Name: name, Layer: layer, Key: key, Start: since(a), End: since(b)})
		}
	}
	var last time.Time
	for _, t := range ev.tasks {
		for i, at := range t.attempts {
			if i < len(t.ready) {
				add("queue", "queue", t.ready[i], at.start)
			}
			name := "task"
			if at.abandoned {
				name = "task.abandoned"
			}
			add(name, "task", at.start, at.end)
		}
		if t.done.After(last) {
			last = t.done
		}
	}
	add("settle", "settle", last, ev.settled)
	return out
}

// traceScand reports the per-layer metrics of a traced section, next to
// the untraced section of the same run.
func traceScand(r *run, untraced, traced scandSection) {
	tr := traced.tr
	var turn []float64
	var queue []float64
	taskMS := make(map[string][]float64)
	var settle []float64
	var inTask, total float64
	events, reclaims, tasks := 0, 0, 0
	for _, s := range traced.samples {
		if s.err != nil {
			continue
		}
		turn = append(turn, ms(s.turnaround))
		ev, err := parseEvents(s.events)
		if err != nil {
			r.fail("%s: events stream: %v", s.id, err)
			continue
		}
		flow := scandSpecs(r.header.Seed, s.client)[s.idx].Flow
		events += ev.events
		reclaims += ev.reclaims
		tasks += len(ev.tasks)
		var busy []span
		for _, sp := range ev.spans(tr.since, s.span, s.id) {
			tr.add(sp)
			switch sp.Layer {
			case "queue":
				queue = append(queue, sp.dur())
			case "task":
				taskMS[flow] = append(taskMS[flow], sp.dur())
				busy = append(busy, sp)
			case "settle":
				settle = append(settle, sp.dur())
			}
		}
		job := span{Start: tr.since(ev.submitted), End: tr.since(ev.settled)}
		inTask += covered(job, busy)
		total += ms(s.turnaround)
	}
	jobs := float64(len(turn))
	spans := tr.snapshot()
	r.spans = spans

	srv := make(map[string][]float64)
	for _, sp := range spans {
		if route, ok := strings.CutPrefix(sp.Name, "server."); ok {
			srv[route] = append(srv[route], sp.dur())
		}
	}
	for _, route := range httpRoutes {
		r.set("jobs.http_ms_p50."+route, median(srv[route]), "ms")
	}
	qt := tailOf(queue)
	r.detail["queue_wait_tail"] = qt
	r.set("jobs.queue_wait_ms_p50", median(queue), "ms")
	r.set("jobs.queue_wait_ms_tail", qt.Value, "ms")
	for _, f := range taskFlows {
		r.set("jobs.task_ms_p50."+f, median(taskMS[f]), "ms")
	}
	r.set("jobs.settle_ms_p50", median(settle), "ms")
	r.set("jobs.outside_task_share", 1-ratio(inTask, total), "ratio")
	r.set("jobs.tasks_per_s", float64(tasks)/traced.sec.Wall.Seconds(), "1/s")
	r.set("jobs.events_per_job", ratio(float64(events), jobs), "count")
	st := traced.stats
	st.mu.Lock()
	requests := 0
	for _, n := range st.requests {
		requests += n
	}
	r.set("jobs.http_requests_per_job", ratio(float64(requests), jobs), "count")
	r.set("jobs.claim_empty_ratio", ratio(float64(st.emptyClaim), float64(st.requests["claim"])), "ratio")
	r.set("jobs.lease_bytes_per_task", ratio(float64(st.leaseBytes), float64(tasks)), "bytes")
	r.detail["requests"] = st.requests
	st.mu.Unlock()
	r.set("jobs.lease_reclaims", float64(reclaims), "count")

	setup := scandSetupLayer()
	r.set("circuits.load_s", setup[0], "s")
	r.set("scan.insert_s", setup[1], "s")
	r.set("fault.universe_s", setup[2], "s")
	// Remote tasks run with no observer, so their events carry no engine
	// counters, and the harness makes no engine calls to span.
	setZero(r, engineMetric)

	done := float64(len(untraced.samples))
	setRuntimeMetrics(r, untraced.sec, done/roundJobs)
	self := layerSelf(spans)
	for _, l := range scandLayers {
		r.set("self_s."+l, ratio(self[l]/1000, jobs), "s")
	}
	up50 := r.metrics["job_p50_ms"].Value
	r.set("trace.overhead_share", ratio(median(turn)-up50, up50), "ratio")
	r.detail["jobs"] = map[string]int{"untraced": len(untraced.samples), "traced": len(traced.samples)}
	r.noteSteal(traced.sec)
}
