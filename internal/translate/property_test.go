// Property test for the paper's Section 3 guarantee, run from an
// external test package so it can lean on the internal/xcheck harness
// (xcheck itself imports translate, ruling out an in-package test).
package translate_test

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/translate"
	"repro/internal/xcheck"
)

// TestTranslatePreservesDetectedSet: over several synthetic catalog
// circuits and random conventional test sets, the translated flat
// sequence applied to C_scan detects every liftable stem or gate-input
// branch fault that the (idealized, conservative) conventional
// application of the same tests detects — translation never loses a
// detection.
func TestTranslatePreservesDetectedSet(t *testing.T) {
	circuitNames := []string{"s208", "s298", "b01", "b06"}
	seeds := []uint64{11, 12, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, name := range circuitNames {
		e, ok := circuits.Lookup(name)
		if !ok || !e.Synthetic {
			t.Fatalf("%s is not a synthetic catalog circuit", name)
		}
		c, err := circuits.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := scan.Insert(c)
		if err != nil {
			t.Fatal(err)
		}
		orig, lifted := xcheck.LiftedFaults(d)
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				tests := randomTests(d, seed)
				seq, err := translate.Translate(d, tests, seed)
				if err != nil {
					t.Fatal(err)
				}
				det := sim.Run(d.Scan, seq, lifted, sim.Options{}).DetectedAt
				conv, kept := 0, 0
				for i := range orig {
					if !xcheck.ConventionalDetect(d.Orig, tests, orig[i]) {
						continue
					}
					conv++
					if det[i] == sim.NotDetected {
						t.Errorf("fault %s: detected conventionally, missed by the translated sequence",
							lifted[i].Name(d.Scan))
						continue
					}
					kept++
				}
				if conv == 0 {
					t.Fatal("conventional application detected nothing; test set too weak to mean anything")
				}
				t.Logf("%d conventionally detected faults, %d preserved by translation", conv, kept)
			})
		}
	}
}

// randomTests builds a small fully-specified conventional test set.
func randomTests(d *scan.Circuit, seed uint64) []translate.ScanTest {
	rng := logic.NewRandFiller(seed ^ 0xA5A5A5A5)
	tests := make([]translate.ScanTest, 2+rng.Intn(3))
	for ti := range tests {
		si := make(logic.Vector, d.NumStateVars())
		for i := range si {
			si[i] = rng.Next()
		}
		T := make(logic.Sequence, 1+rng.Intn(3))
		for vi := range T {
			v := make(logic.Vector, d.Orig.NumInputs())
			for i := range v {
				v[i] = rng.Next()
			}
			T[vi] = v
		}
		tests[ti] = translate.ScanTest{SI: si, T: T}
	}
	return tests
}
