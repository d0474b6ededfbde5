// Command perfbench is the repository benchmark: it drives named
// workloads through the program's public entry points — core.RunGenerate
// for the paper's Table 5/6 flows and jobs.Server over loopback HTTP for
// scand job traffic — checks every output, and prints one JSON result
// line. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload table6-compact --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off; with --trace 1 it carries the per-layer metrics of
// a traced run. WORKLOADS.md explains each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string // directory for reports, determinism records and scand data
	commit   string // recorded in the header
}

// workload is one named benchmark workload; BENCHMARK.json lists them
// in the same order.
type workload struct {
	name string
	run  func(opt options, r *run) error
}

var workloads = []workload{
	{"table6-compact", func(opt options, r *run) error { return runFlows(table6, opt, r) }},
	{"table5-generate", func(opt options, r *run) error { return runFlows(table5, opt, r) }},
	{"scand-fleet", func(opt options, r *run) error { return runScand(opt, r) }},
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", opt.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newRun(opt)
	if err := wl.run(opt, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.finish(opt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var seconds int
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed (seed 1 reproduces the committed tables)")
	fs.IntVar(&seconds, "seconds", 10, "length of the timed section in seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&opt.out, "out", ".bench_build/perfbench-out", "directory for reports and scratch data")
	fs.StringVar(&opt.commit, "commit", "unknown", "commit of the code under test, for the header")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if seconds < 1 {
		return opt, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1")
	}
	opt.seconds = time.Duration(seconds) * time.Second
	opt.trace = trace == 1
	return opt, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's outcome: metrics, operation counts,
// failures and the extra detail written to the report file.
type run struct {
	header    header
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	detail    map[string]any
	spans     []span
	// stealTotal is the host tick total behind header.StealShare.
	stealTotal uint64
}

func newRun(opt options) *run {
	return &run{
		header:  newHeader(opt),
		metrics: make(map[string]metric),
		detail:  make(map[string]any),
	}
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: finite(v), Unit: unit}
}

// fail records one failed operation with its reason.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a correctness problem that is not tied to one
// operation (a determinism drift, say); it makes the run incorrect.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// finish checks that the run reports every metric its mode promises,
// writes the report file and prints the result line.
func (r *run) finish(opt options) error {
	want := endToEnd
	if opt.trace {
		want = perLayer
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = v
	}
	if r.attempted < 1 {
		r.problem("no operation was attempted")
		r.attempted = 1
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   out,
	}
	if err := r.writeReport(opt, res); err != nil {
		return err
	}
	hdr, err := json.Marshal(r.header)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench header %s\n", hdr)
	if w, ok := r.detail["wall_s"]; ok {
		fmt.Printf("perfbench wall_s %v (not gated)\n", w)
	}
	fmt.Printf("%s\n", line)
	return nil
}

// writeReport writes the run's full record — header, result, detail
// and spans — under the output directory, one file per workload, seed
// and mode.
func (r *run) writeReport(opt options, res result) error {
	dir := filepath.Join(opt.out, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(r.spans, func(a, b int) bool { return r.spans[a].ID < r.spans[b].ID })
	rep := map[string]any{
		"header":   r.header,
		"result":   res,
		"all":      r.metrics,
		"problems": r.problems,
		"detail":   r.detail,
		"spans":    r.spans,
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if opt.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", opt.workload, opt.seed, mode)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
