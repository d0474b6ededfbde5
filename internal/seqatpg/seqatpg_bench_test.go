package seqatpg

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
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

// BenchmarkManagerAppend measures the incremental fault manager's
// per-vector cost with the full fault universe alive.
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
	mgr := NewManager(sc.Scan, faults)
	v := sc.ShiftVector(logic.One)
	v.FillX(logic.NewRandFiller(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.Append(v)
	}
}
