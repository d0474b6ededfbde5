package seqatpg

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/sim"
)

// BenchmarkGenerate measures the Section 2 generator end to end on
// small circuits (full fault universe, default options).
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"s27", "s298", "s526"} {
		b.Run(name, func(b *testing.B) {
			c, err := circuits.Load(name)
			if err != nil {
				b.Fatal(err)
			}
			sc, err := scan.Insert(c)
			if err != nil {
				b.Fatal(err)
			}
			faults := fault.Universe(sc.Scan, true)
			b.ResetTimer()
			var res Result
			for i := 0; i < b.N; i++ {
				res = Generate(sc, faults, Options{Seed: 1})
			}
			b.ReportMetric(float64(res.NumDetected())/float64(len(faults))*100, "fcov_pct")
			b.ReportMetric(float64(len(res.Sequence)), "cycles")
		})
	}
}

// BenchmarkGenerateAblation contrasts generation with and without the
// functional-level scan knowledge (the paper's key enhancement).
func BenchmarkGenerateAblation(b *testing.B) {
	c, err := circuits.Load("s298")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Universe(sc.Scan, true)
	for _, disable := range []bool{false, true} {
		name := "with-scan-knowledge"
		if disable {
			name = "without-scan-knowledge"
		}
		b.Run(name, func(b *testing.B) {
			var res Result
			for i := 0; i < b.N; i++ {
				res = Generate(sc, faults, Options{Seed: 1, DisableScanKnowledge: disable})
			}
			b.ReportMetric(float64(res.NumDetected())/float64(len(faults))*100, "fcov_pct")
			b.ReportMetric(float64(res.NumFunct()), "funct")
		})
	}
}

// BenchmarkManagerAppend measures the incremental fault manager: each
// op appends the sequence Generate builds for s953 at seed 1 to a fresh
// Manager over the full fault universe, so every op does the same work,
// and batchsteps reports the batch-vector steps one op takes.
func BenchmarkManagerAppend(b *testing.B) {
	c, err := circuits.Load("s953")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Universe(sc.Scan, true)
	seq := Generate(sc, faults, Options{Seed: 1}).Sequence
	s := sim.NewSimulator(sc.Scan, 1)
	reg := obs.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr := NewManagerSim(s, faults)
		mgr.Observe(reg)
		mgr.AppendSequence(seq)
		mgr.Close()
	}
	b.ReportMetric(float64(reg.Snapshot().Counters["generate.batch_steps"])/float64(b.N), "batchsteps")
}
