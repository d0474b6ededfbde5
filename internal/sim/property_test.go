package sim

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

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
		for _, opts := range []Options{{}, {Kernel: KernelFull}} {
			res := Run(c, seq, faults, opts)
			for fi, f := range faults {
				want := refDetect(c, seq, f)
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

// TestStepMultiMatchesStep: broadcasting one vector via StepMulti must
// equal Step for every slot and every output.
func TestStepMultiMatchesStep(t *testing.T) {
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	rng := logic.NewRandFiller(77)
	a, b := New(c), New(c)
	for i := 0; i < 20; i++ {
		v := make(logic.Vector, c.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		a.Step(v)
		b.StepMulti([]logic.Vector{v})
		for po := 0; po < c.NumOutputs(); po++ {
			for slot := 0; slot < Slots; slot += 13 {
				if a.OutputSlot(po, slot) != b.OutputSlot(po, slot) {
					t.Fatalf("step %d: Step and StepMulti diverge at po %d slot %d", i, po, slot)
				}
			}
		}
	}
}

// TestSetStatePair: slot 0 must carry the good state and the remaining
// slots the faulty state.
func TestSetStatePair(t *testing.T) {
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	m := New(c)
	good := []logic.Value{logic.Zero, logic.One, logic.X}
	faulty := []logic.Value{logic.One, logic.One, logic.Zero}
	m.SetStatePair(good, faulty)
	g := m.StateSlot(0)
	f := m.StateSlot(17)
	for i := range good {
		if g[i] != good[i] {
			t.Errorf("slot0 FF %d = %v, want %v", i, g[i], good[i])
		}
		if f[i] != faulty[i] {
			t.Errorf("slot17 FF %d = %v, want %v", i, f[i], faulty[i])
		}
	}
}

// TestRunPrefixConsistency: detections strictly before t do not change
// when the sequence is truncated at t — the invariant the omission
// engine's prefix checkpointing rests on.
func TestRunPrefixConsistency(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(c, true)[:128]
	rng := logic.NewRandFiller(11)
	seq := make(logic.Sequence, 60)
	for i := range seq {
		v := logic.NewVector(c.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}
	full := Run(c, seq, faults, Options{})
	for _, cut := range []int{10, 30, 50} {
		part := Run(c, seq[:cut], faults, Options{})
		for fi := range faults {
			if full.DetectedAt[fi] != NotDetected && full.DetectedAt[fi] < cut {
				if part.DetectedAt[fi] != full.DetectedAt[fi] {
					t.Errorf("cut %d fault %d: %d vs %d", cut, fi, part.DetectedAt[fi], full.DetectedAt[fi])
				}
			}
		}
	}
}
