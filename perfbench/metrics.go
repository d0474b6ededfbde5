package main

import (
	"fmt"
	"math"
	"regexp"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json lists the
// gated ones with the same names, units and directions;
// TestBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics of a --trace 0 run, reported by every
// workload. Counts and times are per round: one pass over the
// workload's deterministic inputs (the flow's circuits, or the scand
// clients' job lists). Wall time and the scand turnaround metrics are
// measured too but not gated: on a host whose steal time and disk
// latency drift they were not steady (WORKLOADS.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"test_cycles", "cycles", "lower"},
	{"detected_faults", "faults", "higher"},
}

// flowLayers name the span layers of a traced flow round.
var flowLayers = []string{"setup", "generator", "compaction", "kernel", "comparator", "harness"}

// perLayer are the metrics of a --trace 1 run, reported by every
// workload; a layer a workload does not exercise reads 0. The scand
// turnaround metrics come first in the service layer: they are the
// service's end-to-end view, measured on the run's untraced section.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"circuits.load_s", "s", "lower"},
		{"scan.insert_s", "s", "lower"},
		{"fault.universe_s", "s", "lower"},

		{"seqatpg.generate_s", "s", "lower"},
		{"seqatpg.vectors", "count", "lower"},
		{"seqatpg.frames", "count", "lower"},
		{"seqatpg.attempts", "count", "lower"},
		{"seqatpg.attempt_yield", "ratio", "higher"},
		{"seqatpg.flush_vectors", "count", "lower"},
		{"seqatpg.us_per_frame", "us", "lower"},
		{"combatpg.podem_calls", "count", "lower"},
		{"combatpg.podem_backtracks", "count", "lower"},

		{"compact.restore_s", "s", "lower"},
		{"compact.omit_s", "s", "lower"},
		{"compact.restore_trials", "count", "lower"},
		{"compact.omit_trials", "count", "lower"},
		{"compact.omit_windows", "count", "lower"},
		{"compact.restore_batch_steps", "count", "lower"},
		{"compact.omit_batch_steps", "count", "lower"},
		{"compact.omit_yield", "ratio", "higher"},
		{"compact.restore_ns_per_batch_step", "ns", "lower"},
		{"compact.omit_ns_per_batch_step", "ns", "lower"},
		{"compact.omit_memo_hits", "count", "higher"},
		{"compact.omit_reconv_cutoffs", "count", "higher"},

		{"sim.runs", "count", "lower"},
		{"sim.batches", "count", "lower"},
		{"sim.batch_steps", "count", "lower"},
		{"sim.fastforwarded", "count", "higher"},
		{"sim.trace_hit_ratio", "ratio", "higher"},
		{"sim.pool_hit_ratio", "ratio", "higher"},

		{"baseline.generate_s", "s", "lower"},

		{"jobs_per_s", "jobs/s", "higher"},
		{"job_p50_ms", "ms", "lower"},
		{"job_tail_ms", "ms", "lower"},
	}
	for _, r := range httpRoutes {
		defs = append(defs, metricDef{"jobs.http_ms_p50." + r, "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"jobs.queue_wait_ms_p50", "ms", "lower"},
		metricDef{"jobs.queue_wait_ms_tail", "ms", "lower"},
	)
	for _, f := range taskFlows {
		defs = append(defs, metricDef{"jobs.task_ms_p50." + f, "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"jobs.settle_ms_p50", "ms", "lower"},
		metricDef{"jobs.outside_task_share", "ratio", "lower"},
		metricDef{"jobs.tasks_per_s", "1/s", "higher"},
		metricDef{"jobs.events_per_job", "count", "lower"},
		metricDef{"jobs.http_requests_per_job", "count", "lower"},
		metricDef{"jobs.claim_empty_ratio", "ratio", "lower"},
		metricDef{"jobs.lease_bytes_per_task", "bytes", "lower"},
		metricDef{"jobs.lease_reclaims", "count", "lower"},

		metricDef{"runtime.alloc_mib", "MiB", "lower"},
		metricDef{"runtime.mallocs", "count", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
	)
	for _, l := range append(append([]string(nil), flowLayers...), scandLayers...) {
		defs = append(defs, metricDef{"self_s." + l, "s", "lower"})
	}
	return append(defs, metricDef{"trace.overhead_share", "ratio", "lower"})
}()

// serviceMetric reports whether a per-layer metric belongs to the
// service layer, which only the scand workload exercises.
func serviceMetric(name string) bool {
	return strings.HasPrefix(name, "job") || hasSelf(name, scandLayers)
}

// engineMetric reports whether a per-layer metric belongs to the flow
// engines — generator, compaction, kernel, comparator — whose counters
// and spans the scand workload cannot see.
func engineMetric(name string) bool {
	for _, p := range []string{"seqatpg.", "combatpg.", "compact.", "sim.", "baseline."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return hasSelf(name, flowLayers)
}

func hasSelf(name string, layers []string) bool {
	for _, l := range layers {
		if name == "self_s."+l {
			return true
		}
	}
	return false
}

// setZero reports 0 for every per-layer metric of a layer the workload
// does not exercise, as picked by unused.
func setZero(r *run, unused func(name string) bool) {
	for _, m := range perLayer {
		if unused(m.Name) {
			r.set(m.Name, 0, m.Unit)
		}
	}
}

// httpRoutes are the scand API routes timed on the server side.
var httpRoutes = []string{"submit", "get", "events", "result", "claim", "heartbeat", "upload"}

// taskFlows are the scand job flows whose task times are reported.
var taskFlows = []string{"simulate", "compact", "generate"}

// scandLayers name the span layers of a traced scand section.
var scandLayers = []string{"client", "server", "queue", "task", "settle"}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateMetrics checks every declared name, unit and direction
// against the benchmark's naming rules and rejects duplicates.
func validateMetrics(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !metricNameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit, at most 64 long", d.Name)
		}
		if !metricUnitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q is not a valid unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q, not lower or higher", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// finite maps NaN and infinities (a ratio over nothing) to 0, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
