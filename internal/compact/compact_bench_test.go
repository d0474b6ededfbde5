package compact

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adi"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
)

// BenchmarkCompaction measures the two static compaction procedures and
// the combined pipeline on a generated sequence. The ablation between
// Restore-only, Omit-only and the pipeline quantifies the paper's
// Section 4 design choice (restoration first, then omission).
func BenchmarkCompaction(b *testing.B) {
	c, err := circuits.Load("s298")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Universe(sc.Scan, true)
	gen := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})

	b.Run("restore-only", func(b *testing.B) {
		var n int
		var st Stats
		for i := 0; i < b.N; i++ {
			var out logic.Sequence
			out, st = Restore(sc.Scan, gen.Sequence, faults)
			n = len(out)
		}
		b.ReportMetric(float64(len(gen.Sequence)), "raw_cycles")
		b.ReportMetric(float64(n), "cycles")
		b.ReportMetric(float64(st.BatchSteps), "batchsteps")
	})
	b.Run("omit-only", func(b *testing.B) {
		reg := obs.NewRegistry()
		var n int
		var st Stats
		for i := 0; i < b.N; i++ {
			var out logic.Sequence
			out, st = OmitOpts(sc.Scan, gen.Sequence, faults, Options{Obs: reg})
			n = len(out)
		}
		b.ReportMetric(float64(n), "cycles")
		b.ReportMetric(float64(st.BatchSteps), "batchsteps")
		b.ReportMetric(float64(reg.Snapshot().Counters["omit.reconv_cutoffs"])/float64(b.N), "reconv/op")
	})
	b.Run("restore-then-omit", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			_, out, _, _ := RestoreThenOmit(sc.Scan, gen.Sequence, faults)
			n = len(out)
		}
		b.ReportMetric(float64(n), "cycles")
	})
}

// BenchmarkCompactionEngines compares the incremental restoration
// engine against the serial scratch reference on the full pipeline,
// across worker counts; omission runs its one engine in both. Both
// produce bit-identical output; the metrics expose where the time goes:
// trial throughput, the simulator's fault-free trace splices (each
// restoration or omission trial shares a tail with the trace before it,
// and adopts that trace's rows where the two reconverge), the omission
// trials among them (reconvergence cutoffs) and window-memo hits.
func BenchmarkCompactionEngines(b *testing.B) {
	c, err := circuits.Load("s298")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Universe(sc.Scan, true)
	gen := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, engine := range []Engine{EngineIncremental, EngineScratch} {
		for k := range seen {
			delete(seen, k)
		}
		for _, workers := range workerCounts {
			if seen[workers] {
				continue
			}
			seen[workers] = true
			if engine == EngineScratch && workers != 1 {
				continue // the scratch trial loop is serial by definition
			}
			name := fmt.Sprintf("%s/workers=%d", engine, workers)
			b.Run(name, func(b *testing.B) {
				reg := obs.NewRegistry()
				var st Stats
				for i := 0; i < b.N; i++ {
					_, _, _, st = RestoreThenOmitOpts(sc.Scan, gen.Sequence, faults,
						Options{Engine: engine, Workers: workers, Obs: reg})
				}
				snap := reg.Snapshot().Counters
				trials := snap["restore.trials"] + snap["omit.trials"]
				b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
				b.ReportMetric(float64(snap["sim.trace_splice_hits"])/float64(b.N), "splice_hits/op")
				b.ReportMetric(float64(snap["sim.trace_splice_steps"])/float64(b.N), "splice_steps/op")
				b.ReportMetric(float64(snap["omit.reconv_cutoffs"])/float64(b.N), "reconv/op")
				b.ReportMetric(float64(snap["omit.window_memo_hits"])/float64(b.N), "win_hits/op")
				b.ReportMetric(float64(st.BatchSteps), "batchsteps")
			})
		}
	}
}

// BenchmarkADIScores measures the accidental-detection profile pass that
// OrderADI adds in front of restoration.
func BenchmarkADIScores(b *testing.B) {
	c, err := circuits.Load("s298")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Universe(sc.Scan, true)
	gen := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
	s := sim.NewSimulator(sc.Scan, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adi.Scores(s, gen.Sequence, faults)
	}
	b.ReportMetric(float64(len(gen.Sequence)*len(faults))*float64(b.N)/b.Elapsed().Seconds(), "faultcycles/s")
}
