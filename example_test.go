package scanatpg_test

import (
	"bytes"
	"fmt"

	scanatpg "repro"
)

// Building a circuit programmatically and running the whole flow.
func Example_customCircuit() {
	b := scanatpg.NewBuilder("demo")
	b.AddInput("a")
	b.AddInput("en")
	b.AddGate(scanatpg.XorGate, "d", "a", "q")
	b.AddFF("q", "d")
	b.AddGate(scanatpg.AndGate, "y", "q", "en")
	b.MarkOutput("y")
	c, err := b.Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	sc, _ := scanatpg.InsertScan(c)
	faults := scanatpg.Faults(sc.Scan, true)
	gen := scanatpg.Generate(sc, faults, scanatpg.GenerateOptions{Seed: 1})
	fmt.Println(gen.NumDetected() > 0)
	// Output: true
}

// Translating a conventional test set and compacting it (Section 3 + 4).
func ExampleTranslate() {
	c, _ := scanatpg.LoadBenchmark("s27")
	sc, _ := scanatpg.InsertScan(c)
	tests := scanatpg.FirstApproachTestSet(c, scanatpg.Faults(c, true), 1)
	seq, _ := scanatpg.Translate(sc, tests, 1)
	// Translation is cycle-neutral: the flat sequence is exactly as
	// long as the conventional schedule.
	fmt.Println(len(seq) == scanatpg.ConventionalCycles(tests, sc.MaxLen()))
	// Output: true
}

// Segmenting a compacted sequence into scan operations shows the
// limited scan operations the paper is about.
func ExampleSplitProgram() {
	c, _ := scanatpg.LoadBenchmark("s27")
	sc, _ := scanatpg.InsertScan(c)
	faults := scanatpg.Faults(sc.Scan, true)
	gen := scanatpg.Generate(sc, faults, scanatpg.GenerateOptions{Seed: 1})
	st := scanatpg.SplitProgram(sc, gen.Sequence).Stats()
	fmt.Println(st.LimitedScanOps > 0, st.CompleteScanOps == 0)
	// Output: true true
}

// Multiple scan chains shorten scan operations with no algorithm
// changes.
func ExampleInsertScanChains() {
	c, _ := scanatpg.LoadBenchmark("s298")
	ch, _ := scanatpg.InsertScanChains(c, 4)
	fmt.Println(ch.NumChains(), ch.MaxLen())
	// Output: 4 4
}

// Observing a run: the flight recorder streams phase events as JSONL
// to any writer and aggregates named counters, without changing any
// result.
func ExampleNewMetricsRecorder() {
	c, _ := scanatpg.LoadBenchmark("s27")
	sc, _ := scanatpg.InsertScan(c)
	faults := scanatpg.Faults(sc.Scan, true)
	var buf bytes.Buffer
	rec := scanatpg.NewMetricsRecorder(&buf, scanatpg.MetricsRecorderOptions{Program: "example"})
	opts := scanatpg.GenerateOptions{Seed: 1}
	opts.Obs = rec
	scanatpg.Generate(sc, faults, opts)
	rec.Close()
	fmt.Println(scanatpg.ValidateMetrics(&buf) == nil,
		rec.Snapshot().Counters["generate.attempts"] > 0)
	// Output: true true
}

// Budgeting a run: a Control in the options stops the generator
// cleanly at the attempt cap with a valid partial result a checkpoint
// could continue.
func ExampleGenerate_control() {
	c, _ := scanatpg.LoadBenchmark("s27")
	sc, _ := scanatpg.InsertScan(c)
	faults := scanatpg.Faults(sc.Scan, true)
	opts := scanatpg.GenerateOptions{Seed: 1}
	opts.Control = &scanatpg.Control{Budget: scanatpg.Budget{MaxAttempts: 1}}
	res := scanatpg.Generate(sc, faults, opts)
	fmt.Println(res.Status)
	// Output: budget exhausted
}

// Proving untestability: the classification bounds achievable coverage.
func ExampleClassifyFaults() {
	c, _ := scanatpg.LoadBenchmark("s27")
	sc, _ := scanatpg.InsertScan(c)
	faults := scanatpg.Faults(sc.Scan, true)
	cl := scanatpg.ClassifyFaults(sc.Scan, faults, 1000)
	fmt.Printf("%.0f%%\n", cl.Efficiency())
	// Output: 100%
}
