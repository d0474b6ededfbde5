// Differential tests of the bit-parallel simulator against xcheck's
// scalar reference simulator, run from an external test package because
// xcheck imports sim.
package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/xcheck"
)

// TestDifferentialAgainstReference cross-checks parallel-fault Run
// against the scalar reference simulator on the real s27 circuit with
// random sequences: detection-or-not must agree for every fault, and the
// detection time must match exactly (both record first detection).
func TestDifferentialAgainstReference(t *testing.T) {
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, false)
	rng := logic.NewRandFiller(12345)
	for trial := 0; trial < 4; trial++ {
		seq := make(logic.Sequence, 25)
		for i := range seq {
			v := logic.NewVector(c.NumInputs())
			for j := range v {
				if rng.Intn(10) == 0 {
					v[j] = logic.X
				} else {
					v[j] = rng.Next()
				}
			}
			seq[i] = v
		}
		res := sim.Run(c, seq, faults, sim.Options{})
		for fi, f := range faults {
			want := xcheck.RefDetect(c, seq, f)
			if got := res.DetectedAt[fi]; got != want {
				t.Fatalf("trial %d fault %s: Run=%d ref=%d", trial, f.Name(c), got, want)
			}
		}
	}
}

// TestDifferentialOnSyntheticCircuits extends the s27 differential test
// to randomly generated sequential circuits, one of them built from 3-
// to 5-input gates: the bit-parallel machine must agree with the scalar
// reference on every fault and every detection time.
func TestDifferentialOnSyntheticCircuits(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		var c *netlist.Circuit
		if seed == 4 {
			c = wideCircuit(t, seed)
		} else {
			var err error
			c, err = circuits.Synthesize(circuits.Params{
				Name: "prop", Inputs: 4, FFs: 5, Gates: 40, Outputs: 3, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		faults := fault.Universe(c, false)
		if seed == 4 {
			widePins := 0
			for _, f := range faults {
				if !f.Site.IsStem() && f.Site.Gate >= 0 && len(c.Gates[f.Site.Gate].In) > 2 {
					widePins++
				}
			}
			if widePins == 0 {
				t.Fatal("wide circuit has no branch-pin faults on wide gates")
			}
		}
		rng := logic.NewRandFiller(seed * 7919)
		seq := make(logic.Sequence, 30)
		for i := range seq {
			v := logic.NewVector(c.NumInputs())
			for j := range v {
				if rng.Intn(8) == 0 {
					v[j] = logic.X
				} else {
					v[j] = rng.Next()
				}
			}
			seq[i] = v
		}
		for _, opts := range []sim.Options{{}, {Kernel: sim.KernelFull}} {
			res := sim.Run(c, seq, faults, opts)
			for fi, f := range faults {
				want := xcheck.RefDetect(c, seq, f)
				if got := res.DetectedAt[fi]; got != want {
					t.Fatalf("seed %d kernel %d fault %s: Run=%d ref=%d", seed, opts.Kernel, f.Name(c), got, want)
				}
			}
		}
	}
}

// wideCircuit builds a seeded random sequential circuit whose gates
// cycle through the six multi-input types with 3 to 5 distinct inputs
// each, read from primary inputs, earlier gates and, from the tenth
// gate on, flip-flop outputs. Two flip-flops load from the
// input-only first gates, so the state leaves X; every fifth gate is
// observed.
func wideCircuit(t *testing.T, seed uint64) *netlist.Circuit {
	t.Helper()
	rng := logic.NewRandFiller(seed)
	b := netlist.NewBuilder("wide")
	var pool []string
	for i := 0; i < 6; i++ {
		pool = append(pool, fmt.Sprintf("a%d", i))
		b.AddInput(pool[i])
	}
	types := []netlist.GateType{netlist.AND, netlist.NAND, netlist.OR, netlist.NOR, netlist.XOR, netlist.XNOR}
	const nFF = 4
	for g := 0; g < 30; g++ {
		if g == 10 {
			for i := 0; i < nFF; i++ {
				pool = append(pool, fmt.Sprintf("q%d", i))
			}
		}
		// Draw 3 to 5 distinct inputs by a partial shuffle.
		perm := make([]int, len(pool))
		for i := range perm {
			perm[i] = i
		}
		ins := make([]string, 3+rng.Intn(3))
		for i := range ins {
			j := i + rng.Intn(len(perm)-i)
			perm[i], perm[j] = perm[j], perm[i]
			ins[i] = pool[perm[i]]
		}
		out := fmt.Sprintf("g%d", g)
		b.AddGate(types[g%len(types)], out, ins...)
		pool = append(pool, out)
		if g%5 == 4 {
			b.MarkOutput(out)
		}
	}
	for i, d := range []string{"g3", "g7", "g21", "g27"} {
		b.AddFF(fmt.Sprintf("q%d", i), d)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}
