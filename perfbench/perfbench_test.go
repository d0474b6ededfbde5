package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runctl"
)

func TestTailOf(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	got := tailOf(xs)
	want := tail{Value: 90, Percentile: 90, Beyond: 10, Samples: 100}
	if got != want {
		t.Errorf("100 samples: got %+v, want %+v", got, want)
	}
	if got := tailOf(xs[:11]); got.Value != 90 || got.Beyond != 10 || got.Samples != 11 {
		t.Errorf("11 samples: got %+v, want the smallest with 10 beyond", got)
	}
	// Too few samples for any percentile with 10 beyond: the maximum,
	// recorded as such.
	if got := tailOf([]float64{3, 9, 1}); got != (tail{Value: 9, Percentile: 100, Beyond: 0, Samples: 3}) {
		t.Errorf("3 samples: got %+v", got)
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("no samples: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd: %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even: %v", m)
	}
}

// The fixture is a real scand events stream: a compact job (restore,
// then two chained omission chunks) whose restore task was claimed by a
// worker that never heartbeat, reclaimed by the janitor, and finished by
// another worker.
func TestParseEventsChainReclaim(t *testing.T) {
	data, err := os.ReadFile("testdata/events_chain_reclaim.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := parseEvents(data)
	if err != nil {
		t.Fatal(err)
	}
	if ev.reclaims != 1 || ev.events != 10 {
		t.Errorf("reclaims %d, events %d; want 1, 10", ev.reclaims, ev.events)
	}
	var names []string
	for _, task := range ev.tasks {
		names = append(names, task.name)
	}
	if want := []string{"s27/restore", "s27/omit-0", "s27/omit-1"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("tasks %v, want %v", names, want)
	}
	restore, omit0, omit1 := ev.tasks[0], ev.tasks[1], ev.tasks[2]
	if len(restore.attempts) != 2 || !restore.attempts[0].abandoned || restore.attempts[1].abandoned {
		t.Fatalf("restore attempts %+v: want an abandoned one, then a finished one", restore.attempts)
	}
	if len(restore.ready) != 2 || !restore.ready[0].Equal(ev.submitted) || !restore.ready[1].Equal(restore.attempts[0].end) {
		t.Errorf("restore ready at %v: want submit, then the reclaim", restore.ready)
	}
	if !omit0.ready[0].Equal(restore.done) || !omit1.ready[0].Equal(omit0.done) {
		t.Errorf("chain links ready at %v and %v: want their predecessors' done stamps", omit0.ready, omit1.ready)
	}

	since := func(at time.Time) float64 { return ms(at.Sub(ev.submitted)) }
	count := make(map[string]int)
	var requeued, settle float64
	for _, s := range ev.spans(since, 7, "job-0001") {
		count[s.Name]++
		if s.Parent != 7 || s.Key != "job-0001" {
			t.Errorf("span %s has parent %d and key %q, want the job's", s.Name, s.Parent, s.Key)
		}
		if s.Name == "queue" && s.Start > 150 && s.Start < 250 {
			requeued = s.dur()
		}
		if s.Name == "settle" {
			settle = s.dur()
		}
	}
	if want := map[string]int{"queue": 4, "task": 3, "task.abandoned": 1, "settle": 1}; !reflect.DeepEqual(count, want) {
		t.Errorf("spans %v, want %v", count, want)
	}
	if math.Abs(requeued-308.779855) > 1e-3 {
		t.Errorf("wait after the reclaim %.6f ms, want 308.779855", requeued)
	}
	if math.Abs(settle-0.881596) > 1e-3 {
		t.Errorf("settle %.6f ms, want 0.881596", settle)
	}
}

func TestPredecessor(t *testing.T) {
	for name, want := range map[string]string{
		"s27/omit-0": "s27/restore", "s27/omit-3": "s27/omit-2",
		"s27/restore": "", "s298/shard-1": "", "s27": "",
	} {
		if got := predecessor(name); got != want {
			t.Errorf("predecessor(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestDiffRows(t *testing.T) {
	a := core.GenerateRow{Circ: "s382", TestLen: 809, RestorLen: 596, OmitLen: 424, Status: runctl.Complete}
	if d := diffRows(a, a); d != nil {
		t.Errorf("identical rows differ in %v", d)
	}
	b := a
	b.OmitLen, b.Status = 425, runctl.Resumed
	if d := diffRows(a, b); !reflect.DeepEqual(d, []string{"OmitLen", "Status"}) {
		t.Errorf("got %v, want [OmitLen Status]", d)
	}
}

func TestCompareCounts(t *testing.T) {
	rec := map[string]int64{"test_cycles": 100, "compact.omit_trials": 7}
	if d := compareCounts(rec, map[string]int64{"test_cycles": 100, "new": 1}); d != nil {
		t.Errorf("matching counts drift: %v", d)
	}
	if d := compareCounts(rec, map[string]int64{"compact.omit_trials": 8}); len(d) != 1 {
		t.Errorf("changed count not reported: %v", d)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Layer: "a", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "b", Start: 1, End: 3},
		{ID: 3, Parent: 1, Layer: "b", Start: 2, End: 5},
		{ID: 4, Parent: 1, Layer: "c", Start: 8, End: 12}, // clipped to 8..10
	}
	self := selfTimes(spans)
	if self[1] != 4 || self[2] != 2 || self[3] != 3 || self[4] != 4 {
		t.Errorf("self times %v", self)
	}
	if l := layerSelf(spans); l["a"] != 4 || l["b"] != 5 || l["c"] != 4 {
		t.Errorf("layer self times %v", l)
	}
}

func TestMetricNames(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := validateMetrics(defs); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range []metricDef{
		{"wall s", "s", "lower"},
		{"_wall", "s", "lower"},
		{"wall/s", "s", "lower"},
		{strings.Repeat("x", 65), "s", "lower"},
		{"wall_s", "seconds and more", "lower"},
		{"wall_s", "s", "faster"},
	} {
		if validateMetrics([]metricDef{bad}) == nil {
			t.Errorf("%q (unit %q) accepted", bad.Name, bad.Unit)
		}
	}
	if validateMetrics([]metricDef{{"a", "s", "lower"}, {"a", "s", "lower"}}) == nil {
		t.Error("duplicate name accepted")
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// harness reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if got, want := strings.Join(names, ","), strings.Join(want, ","); got != want {
		t.Errorf("workloads %s, harness %s", got, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, harness %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, harness %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}

func TestJobSeeds(t *testing.T) {
	seen := make(map[uint64]bool)
	for _, seed := range []uint64{0, 1, 2, 1 << 40} {
		for c := 0; c < scandClients; c++ {
			for i := 0; i < jobsPerClient; i++ {
				s := jobSeed(seed, c, i)
				if s == 0 || seen[s] {
					t.Fatalf("seed %d client %d job %d: job seed %d is zero or repeated", seed, c, i, s)
				}
				seen[s] = true
			}
		}
	}
}
