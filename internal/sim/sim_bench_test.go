package sim

import (
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
)

func benchSetup(b *testing.B, name string) (*Machine, logic.Vector) {
	b.Helper()
	c, err := circuits.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	m := New(c)
	rng := logic.NewRandFiller(1)
	v := make(logic.Vector, c.NumInputs())
	for i := range v {
		v[i] = rng.Next()
	}
	return m, v
}

// BenchmarkStepClean measures one fault-free bit-parallel simulation
// step (64 slots per step).
func BenchmarkStepClean(b *testing.B) {
	for _, name := range []string{"s27", "s953", "s5378"} {
		b.Run(name, func(b *testing.B) {
			m, v := benchSetup(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(v)
			}
			b.ReportMetric(float64(m.Circuit().NumGates()), "gates")
		})
	}
}

// BenchmarkStepFaulty measures one step with a full 64-fault batch
// injected.
func BenchmarkStepFaulty(b *testing.B) {
	for _, name := range []string{"s27", "s953", "s5378"} {
		b.Run(name, func(b *testing.B) {
			m, v := benchSetup(b, name)
			faults := fault.Universe(m.Circuit(), true)
			for k := 0; k < Slots && k < len(faults); k++ {
				if err := m.InjectFault(faults[k], uint64(1)<<uint(k)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(v)
			}
		})
	}
}

// BenchmarkSimulatorParallel measures whole-universe fault simulation
// through the Simulator at several worker counts on the largest catalog
// circuit. The serial sub-benchmark is the pre-pool baseline shape (one
// worker, machines still pooled); results are bit-identical across
// worker counts, only wall-clock changes.
func BenchmarkSimulatorParallel(b *testing.B) {
	c, err := circuits.Load("s35932")
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Universe(c, true)
	rng := logic.NewRandFiller(7)
	seq := make(logic.Sequence, 32)
	for i := range seq {
		v := make(logic.Vector, c.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"workers2", 2},
		{"workers4", 4},
		{"allcores", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewSimulator(c, bc.workers)
			b.ResetTimer()
			var det int
			for i := 0; i < b.N; i++ {
				det = s.Run(seq, faults, Options{}).NumDetected()
			}
			b.ReportMetric(float64(det), "detected")
		})
	}
}

// BenchmarkRun measures whole-sequence fault simulation with batching
// and early exit.
func BenchmarkRun(b *testing.B) {
	c, err := circuits.Load("s298")
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.Universe(c, true)
	rng := logic.NewRandFiller(7)
	seq := make(logic.Sequence, 200)
	for i := range seq {
		v := make(logic.Vector, c.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}
	b.ResetTimer()
	var det int
	for i := 0; i < b.N; i++ {
		det = Run(c, seq, faults, Options{}).NumDetected()
	}
	b.ReportMetric(float64(det), "detected")
}

// scanBench builds C_scan for a catalog circuit plus a scan-translated
// test sequence in the paper's shape: per test, a full state load
// through the chain, a couple of functional vectors, and a flush to the
// scan output.
func scanBench(b *testing.B, name string, tests int) (sc *scan.Circuit, faults []fault.Fault, seq logic.Sequence) {
	b.Helper()
	orig, err := circuits.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	sc, err = scan.Insert(orig)
	if err != nil {
		b.Fatal(err)
	}
	faults = fault.Universe(sc.Scan, true)
	rng := rand.New(rand.NewSource(11))
	for test := 0; test < tests; test++ {
		state := make([]logic.Value, sc.NumStateVars())
		for i := range state {
			state[i] = logic.Value(rng.Intn(2))
		}
		load, err := sc.ScanInSequence(state)
		if err != nil {
			b.Fatal(err)
		}
		seq = append(seq, load...)
		for f := 0; f < 2; f++ {
			v := logic.NewVector(sc.Orig.NumInputs())
			for i := range v {
				v[i] = logic.Value(rng.Intn(2))
			}
			seq = append(seq, sc.FunctionalVector(v))
		}
		seq = append(seq, sc.FlushVectors(0)...)
	}
	return sc, faults, seq
}

// cloneSeq deep-copies a sequence so its vector identities differ from
// the original — a Run over a clone always misses the Simulator's
// fault-free trace cache, reproducing the pre-cache per-Run rebuild.
func cloneSeq(seq logic.Sequence) logic.Sequence {
	out := make(logic.Sequence, len(seq))
	for t, v := range seq {
		out[t] = append(logic.Vector(nil), v...)
	}
	return out
}

// kernelVariants are the benchmark configurations shared by the scan
// benchmarks: the seed baseline (full kernel, trace rebuilt every Run —
// rebuild alternates cloned sequences to defeat the cache), the full
// kernel with the trace cache, and the event kernel.
var kernelVariants = []struct {
	name    string
	kernel  Kernel
	rebuild bool
}{
	{"full-rebuild", KernelFull, true},
	{"full", KernelFull, false},
	{"event", KernelEvent, false},
}

// BenchmarkFaultSimScan measures whole-universe fault simulation of
// scan-translated sequences under both kernels — the workload the
// event-driven kernel was built for. Detection results are identical;
// only the work differs (see the batchsteps/fastfwd metrics).
func BenchmarkFaultSimScan(b *testing.B) {
	for _, name := range []string{"s298", "s1423"} {
		sc, faults, seq := scanBench(b, name, 5)
		seqs := []logic.Sequence{cloneSeq(seq), cloneSeq(seq)}
		for _, k := range kernelVariants {
			b.Run(name+"/"+k.name, func(b *testing.B) {
				s := NewSimulator(sc.Scan, 1)
				b.ResetTimer()
				var r Result
				for i := 0; i < b.N; i++ {
					sq := seq
					if k.rebuild {
						sq = seqs[i%2]
					}
					r = s.Run(sq, faults, Options{Kernel: k.kernel})
				}
				b.ReportMetric(float64(r.NumDetected()), "detected")
				b.ReportMetric(float64(r.BatchSteps), "batchsteps")
				b.ReportMetric(float64(r.FastForwarded), "fastfwd")
			})
		}
	}
}

// BenchmarkRunSubsetScan measures the compaction trial shape: repeated
// small-subset simulations against a scan-translated sequence, where
// dead-cycle skipping pays off most (few faults per run, most cycles
// touch none of their sites).
func BenchmarkRunSubsetScan(b *testing.B) {
	sc, faults, seq := scanBench(b, "s298", 5)
	seqs := []logic.Sequence{cloneSeq(seq), cloneSeq(seq)}
	rng := rand.New(rand.NewSource(3))
	subsets := make([][]int, 32)
	for i := range subsets {
		subsets[i] = rng.Perm(len(faults))[:4]
	}
	for _, k := range kernelVariants {
		b.Run(k.name, func(b *testing.B) {
			s := NewSimulator(sc.Scan, 1)
			buf := make([]fault.Fault, 0, Slots)
			out := make([]int, 0, Slots)
			opts := Options{Kernel: k.kernel}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sq := seq
				if k.rebuild {
					sq = seqs[i%2]
				}
				r := s.RunSubset(sq, faults, subsets[i%len(subsets)], opts, buf, out)
				out = r.DetectedAt
			}
		})
	}
}
