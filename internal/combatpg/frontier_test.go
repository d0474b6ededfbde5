package combatpg

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
)

// scanFrontier is the reference D-frontier search: every gate of
// c.Order, values read through composite. propagateObjective must pick
// the same objective while visiting only the fault's cone.
func scanFrontier(g *Generator) (objective, bool) {
	bestGate := int32(-1)
	var bestDist int32 = 1 << 30
	for _, gi := range g.c.Order {
		gate := &g.c.Gates[gi]
		ogv, ofv := g.composite(gate.Out)
		if ogv != logic.X && ofv != logic.X {
			continue
		}
		hasEffect := false
		for p, in := range gate.In {
			igv, ifv := g.composite(in)
			if g.f.Site.Gate == gi && int(g.f.Site.Pin) == p {
				ifv = g.f.SA
			}
			hasEffect = hasEffect || effect(igv, ifv)
		}
		if !hasEffect {
			continue
		}
		if d := g.obsDist[gate.Out]; d < bestDist {
			bestDist = d
			bestGate = gi
		}
	}
	if bestGate < 0 {
		return objective{}, false
	}
	gate := &g.c.Gates[bestGate]
	for _, in := range gate.In {
		if igv, _ := g.composite(in); igv == logic.X {
			return objective{sig: in, val: nonControlling(gate.Type)}, true
		}
	}
	return objective{}, false
}

// randomValue draws 0, 1 or X, X with probability xPct percent.
func randomValue(rng *logic.RandFiller, xPct int) logic.Value {
	if rng.Intn(100) < xPct {
		return logic.X
	}
	return rng.Next()
}

// TestFrontierMatchesWholeCircuitScan checks the cone-restricted
// D-frontier search against scanFrontier on every catalog circuit's
// C_scan, in the sequential generator's mode (fixed good state, a
// faulty state with diverged and X flip-flops) and in the baseline's
// (AssignState), for stem, branch and D-pin faults under random partial
// assignments.
func TestFrontierMatchesWholeCircuitScan(t *testing.T) {
	const faultsPerCase = 40
	checks, withFrontier := 0, 0
	kinds := map[string]int{} // frontier cases per fault kind
	for ci, name := range circuits.Names() {
		c0, err := circuits.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scan.Insert(c0)
		if err != nil {
			t.Fatal(err)
		}
		c := sc.ScanCircuit()
		byKind := map[string][]fault.Fault{}
		for _, f := range fault.Universe(c, false) {
			byKind[faultKind(f)] = append(byKind[faultKind(f)], f)
		}
		// A scan multiplexer is the only reader of its output, so
		// C_scan's universe holds no D-pin faults; build them.
		for fi, ff := range c.FFs {
			for _, sa := range []logic.Value{logic.Zero, logic.One} {
				site := fault.Site{Signal: ff.D, Gate: -1, Pin: -1, FF: int32(fi)}
				byKind["D-pin"] = append(byKind["D-pin"], fault.Fault{Site: site, SA: sa})
			}
		}
		rng := logic.NewRandFiller(uint64(ci+1) << 8)
		for _, assignState := range []bool{false, true} {
			g := NewGenerator(c, Options{AssignState: assignState, ObservePPO: true})
			for k := 0; k < faultsPerCase; k++ {
				fs := byKind[faultKinds[k%len(faultKinds)]]
				f := fs[rng.Intn(len(fs))]
				if !assignState {
					good := make([]logic.Value, c.NumFFs())
					faulty := make([]logic.Value, c.NumFFs())
					for i := range good {
						good[i] = randomValue(rng, 20)
						faulty[i] = good[i]
						if rng.Intn(100) < 25 {
							faulty[i] = randomValue(rng, 30)
						}
					}
					g.SetStates(good, faulty)
				}
				if err := g.start(f); err != nil {
					t.Fatalf("%s: start %s: %v", name, f.Name(c), err)
				}
				for i := range g.assign {
					if (i < g.nPI || assignState) && rng.Intn(2) == 0 {
						g.assign[i] = rng.Next()
					}
				}
				g.imply()
				want, wantOK := scanFrontier(g)
				got, gotOK := g.propagateObjective()
				checks++
				if got != want || gotOK != wantOK {
					t.Fatalf("%s assignState=%v fault %s: objective (%s=%v, %v), whole-circuit scan (%s=%v, %v)",
						name, assignState, f.Name(c), c.SignalName(got.sig), got.val, gotOK, c.SignalName(want.sig), want.val, wantOK)
				}
				if g.frontier != g.coneSize {
					t.Fatalf("%s: FrontierGates %d after one search, cone holds %d", name, g.frontier, g.coneSize)
				}
				if wantOK {
					withFrontier++
					kinds[faultKind(f)]++
				}
			}
		}
	}
	t.Logf("%d checks, %d with a D-frontier objective, by fault kind %v", checks, withFrontier, kinds)
	if withFrontier < checks/10 {
		t.Errorf("only %d of %d checks have a D-frontier objective", withFrontier, checks)
	}
	for _, k := range faultKinds {
		if kinds[k] == 0 {
			t.Errorf("no %s fault with a D-frontier objective", k)
		}
	}
}

var faultKinds = []string{"stem", "branch", "D-pin"}

func faultKind(f fault.Fault) string {
	switch {
	case f.Site.IsStem():
		return "stem"
	case f.Site.FF >= 0:
		return "D-pin"
	}
	return "branch"
}
