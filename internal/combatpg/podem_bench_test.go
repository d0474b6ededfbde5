package combatpg

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

// BenchmarkPodem measures PODEM on s953's C_scan in the two modes the
// flows use: "frame" is the Section 2 generator's per-frame oracle
// (fixed good state, diverged faulty state, 30 backtracks) and "assign"
// its state-assigning fallback (AssignState, 300 backtracks), the mode
// of the baseline and of Table 7. Each op runs PODEM once per eighth
// fault of the collapsed universe, from the states a fixed random
// 16-vector prefix leaves, so calls, backtracks and frontier_gates per
// op are the same at every b.N.
func BenchmarkPodem(b *testing.B) {
	c0, err := circuits.Load("s953")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := scan.Insert(c0)
	if err != nil {
		b.Fatal(err)
	}
	c := sc.ScanCircuit()
	type frame struct {
		f            fault.Fault
		good, faulty []logic.Value
	}
	var frames []frame
	rng := logic.NewRandFiller(1)
	m := sim.New(c)
	faults := fault.Universe(c, true)
	for i := 0; i < len(faults); i += 8 {
		m.ClearFaults()
		m.Reset()
		if err := m.InjectFault(faults[i], sim.AllSlots&^1); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 16; k++ {
			v := logic.NewVector(c.NumInputs())
			for j := range v {
				v[j] = rng.Next()
			}
			m.Step(v)
		}
		frames = append(frames, frame{faults[i], m.StateSlot(0), m.StateSlot(1)})
	}
	for _, mode := range []struct {
		name       string
		assign     bool
		backtracks int
	}{{"frame", false, 30}, {"assign", true, 300}} {
		b.Run(mode.name, func(b *testing.B) {
			g := NewGenerator(c, Options{AssignState: mode.assign, ObservePPO: true, MaxBacktracks: mode.backtracks})
			var calls, backtracks, frontier int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, fr := range frames {
					if !mode.assign {
						g.SetStates(fr.good, fr.faulty)
					}
					r := g.Generate(fr.f)
					calls++
					backtracks += r.Backtracks
					frontier += r.FrontierGates
				}
			}
			b.ReportMetric(float64(calls)/float64(b.N), "calls")
			b.ReportMetric(float64(backtracks)/float64(b.N), "backtracks")
			b.ReportMetric(float64(frontier)/float64(b.N), "frontier_gates")
		})
	}
}
