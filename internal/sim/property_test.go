package sim

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
)

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
