package scanatpg

import (
	"bytes"
	"testing"

	"repro/internal/compact"
	"repro/internal/sim"
)

func s27Design(t *testing.T) (*ScanCircuit, []Fault, GenerateResult) {
	t.Helper()
	c, err := LoadBenchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := InsertScan(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := Faults(sc.Scan, true)
	return sc, faults, Generate(sc, faults, GenerateOptions{Seed: 1})
}

// The facade's compaction entry points must be bit-identical to the
// internal compact package.
func TestFacadeCompactUnified(t *testing.T) {
	sc, faults, gen := s27Design(t)

	fr, fst := Restore(sc, gen.Sequence, faults, CompactOptions{})
	ir, ist := compact.Restore(sc.Scan, gen.Sequence, faults)
	if fr.String() != ir.String() {
		t.Error("facade Restore differs from internal compact.Restore")
	}
	if fst.AfterLen != ist.AfterLen || fst.TargetFaults != ist.TargetFaults {
		t.Errorf("restore stats differ: %+v vs %+v", fst, ist)
	}

	fo, fost := Omit(sc, fr, faults, CompactOptions{})
	io2, iost := compact.Omit(sc.Scan, ir, faults)
	if fo.String() != io2.String() {
		t.Error("facade Omit differs from internal compact.Omit")
	}
	if fost.AfterLen != iost.AfterLen {
		t.Errorf("omit stats differ: %+v vs %+v", fost, iost)
	}

	cseq, cst := Compact(sc, gen.Sequence, faults, CompactOptions{})
	if cseq.String() != fo.String() {
		t.Error("Compact differs from Restore+Omit")
	}
	if cst.Status != Complete {
		t.Errorf("Compact status = %v", cst.Status)
	}
}

// Engine and order selection through CompactOptions must match the
// internal package's behavior: engines are output-identical, OrderADI
// changes output the same way on both paths.
func TestFacadeCompactOptionsEngineOrder(t *testing.T) {
	sc, faults, gen := s27Design(t)

	inc, _ := Compact(sc, gen.Sequence, faults, CompactOptions{Engine: EngineIncremental})
	scr, _ := Compact(sc, gen.Sequence, faults, CompactOptions{Engine: EngineScratch})
	if inc.String() != scr.String() {
		t.Error("incremental and scratch engines disagree through the facade")
	}

	adi, _ := Restore(sc, gen.Sequence, faults, CompactOptions{Order: OrderADI})
	_, iadist := compact.RestoreOpts(sc.Scan, gen.Sequence, faults, compact.Options{Order: compact.OrderADI})
	iadi, _ := compact.RestoreOpts(sc.Scan, gen.Sequence, faults, compact.Options{Order: compact.OrderADI})
	_ = iadist
	if adi.String() != iadi.String() {
		t.Error("facade OrderADI differs from internal OrderADI")
	}
}

// Simulate must match Simulator.Run exactly, including across repeated
// calls that hit the cached simulator.
func TestFacadeSimulateCached(t *testing.T) {
	sc, faults, gen := s27Design(t)
	want := NewSimulator(sc.Scan, 0).Run(gen.Sequence, faults, SimOptions{}).DetectedAt
	for call := 0; call < 2; call++ {
		got := Simulate(sc.Scan, gen.Sequence, faults)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d: fault %d detected at %d, want %d", call, i, got[i], want[i])
			}
		}
	}
	// And the raw one-shot path agrees too.
	raw := sim.Run(sc.Scan, gen.Sequence, faults, sim.Options{}).DetectedAt
	for i := range want {
		if raw[i] != want[i] {
			t.Fatalf("pooled and one-shot simulation disagree at fault %d", i)
		}
	}
}

// A budget rides in GenerateOptions.Control.
func TestGenerateControlInOptions(t *testing.T) {
	sc, faults, plain := s27Design(t)

	opts := GenerateOptions{Seed: 1}
	opts.Control = nil
	free := Generate(sc, faults, opts)
	if free.Status != Complete {
		t.Fatalf("nil control status = %v", free.Status)
	}
	if free.Sequence.String() != plain.Sequence.String() {
		t.Error("Generate with nil Control differs from Generate")
	}

	capped := GenerateOptions{Seed: 1, Control: &Control{Budget: Budget{MaxAttempts: 1}}}
	res := Generate(sc, faults, capped)
	if res.Status != BudgetExhausted {
		t.Errorf("capped status = %v, want %v", res.Status, BudgetExhausted)
	}
	if len(res.Sequence) >= len(plain.Sequence) {
		t.Error("budget stop should leave a shorter partial sequence")
	}
}

// A budget rides in CompactOptions.Control.
func TestCompactControlInOptions(t *testing.T) {
	sc, faults, gen := s27Design(t)

	full, fullStats := Compact(sc, gen.Sequence, faults, CompactOptions{})
	got, gotStats := Compact(sc, gen.Sequence, faults, CompactOptions{Control: nil})
	if got.String() != full.String() || gotStats.AfterLen != fullStats.AfterLen {
		t.Error("Compact with nil Control differs from Compact")
	}

	capped, st := Compact(sc, gen.Sequence, faults,
		CompactOptions{Control: &Control{Budget: Budget{MaxTrials: 1}}})
	if st.Status != BudgetExhausted {
		t.Errorf("capped status = %v, want %v", st.Status, BudgetExhausted)
	}
	if len(capped) == 0 {
		t.Error("budget stop should leave a valid partial sequence")
	}
}

// The re-exported flight recorder must produce a schema-valid stream
// when observing a facade flow, whether attached to the generator or to
// a compaction pass through CompactOptions.Obs.
func TestFacadeMetricsRecorder(t *testing.T) {
	sc, faults, gen := s27Design(t)
	var buf bytes.Buffer
	rec := NewMetricsRecorder(&buf, MetricsRecorderOptions{Program: "facade-test"})
	opts := GenerateOptions{Seed: 1}
	opts.Obs = rec
	res := Generate(sc, faults, opts)
	if res.Status != Complete {
		t.Fatalf("status = %v", res.Status)
	}
	Compact(sc, gen.Sequence, faults, CompactOptions{Obs: rec})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("invalid metrics stream: %v", err)
	}
	if rec.Snapshot().Counters["generate.attempts"] == 0 {
		t.Error("generator reported no attempts")
	}
	if rec.Snapshot().Counters["restore.trials"] == 0 {
		t.Error("compaction pass reported no trials through CompactOptions.Obs")
	}
}
