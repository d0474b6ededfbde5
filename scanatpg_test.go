package scanatpg

import (
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	c, err := LoadBenchmark("s27")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := InsertScan(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := Faults(sc.Scan, true)
	if len(faults) == 0 {
		t.Fatal("no faults")
	}
	gen := Generate(sc, faults, GenerateOptions{Seed: 1})
	if gen.NumDetected() != len(faults) {
		t.Fatalf("s27 coverage %d/%d", gen.NumDetected(), len(faults))
	}
	compacted, stats := Compact(sc, gen.Sequence, faults, CompactOptions{})
	if len(compacted) > len(gen.Sequence) {
		t.Error("compaction grew the sequence")
	}
	if stats.Simulations == 0 {
		t.Error("no simulations recorded")
	}
	times := Simulate(sc.Scan, compacted, faults)
	for fi, tm := range times {
		if tm < 0 {
			t.Errorf("fault %d lost after compaction", fi)
		}
	}
}

func TestFacadeBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) < 20 {
		t.Errorf("catalog too small: %d", len(names))
	}
	if names[0] != "s27" {
		t.Errorf("first benchmark = %s", names[0])
	}
}

func TestFacadeBenchRoundTrip(t *testing.T) {
	c, _ := LoadBenchmark("s27")
	text := FormatBench(c)
	c2, err := ParseBench(strings.NewReader(text), "s27")
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != c.NumGates() {
		t.Error("bench round trip changed the circuit")
	}
}

func TestFacadeBuilderAndGateTypes(t *testing.T) {
	b := NewBuilder("t")
	b.AddInput("a")
	b.AddInput("bb")
	b.AddGate(NandGate, "n", "a", "bb")
	b.AddGate(XorGate, "x", "a", "n")
	b.AddFF("q", "x")
	b.MarkOutput("q")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := InsertScan(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := Faults(sc.Scan, true)
	gen := Generate(sc, faults, GenerateOptions{Seed: 1})
	if gen.NumDetected() == 0 {
		t.Error("nothing detected on the custom circuit")
	}
}

func TestFacadeTranslateFlow(t *testing.T) {
	c, _ := LoadBenchmark("s27")
	sc, _ := InsertScan(c)
	faults := Faults(c, true)
	tests := FirstApproachTestSet(c, faults, 1)
	if len(tests) == 0 {
		t.Fatal("first-approach set empty")
	}
	seq, err := Translate(sc, tests, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != ConventionalCycles(tests, sc.MaxLen()) {
		t.Error("translated length != conventional cycles")
	}
	scanFaults := Faults(sc.Scan, true)
	restored, _ := Restore(sc, seq, scanFaults, CompactOptions{})
	omitted, _ := Omit(sc, restored, scanFaults, CompactOptions{})
	if len(omitted) > len(restored) || len(restored) > len(seq) {
		t.Error("compaction not monotone")
	}
}

func TestFacadeFlows(t *testing.T) {
	cfg := DefaultFlowConfig()
	cfg.SkipBaseline = true
	row, err := RunGenerateFlow("s27", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.Circ != "s27" || row.Detected == 0 {
		t.Errorf("row = %+v", row)
	}
	trow, err := RunTranslateFlow("s27", DefaultFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if trow.OmitLen == 0 || trow.Cycles == 0 {
		t.Errorf("trow = %+v", trow)
	}
}

func TestFacadeBaseline(t *testing.T) {
	c, _ := LoadBenchmark("s27")
	faults := Faults(c, true)
	res := GenerateBaseline(c, faults, BaselineOptions{Seed: 1})
	if res.Cycles <= 0 || len(res.Tests) == 0 {
		t.Errorf("baseline = %d tests, %d cycles", len(res.Tests), res.Cycles)
	}
}
