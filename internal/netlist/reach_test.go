package netlist_test

import (
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/netlist"
)

// naiveReach is SequentialReach's definition run to a fixpoint the
// obvious way: every signal a reached signal drives through a gate is
// reached, and a flip-flop whose D pin is reached has its Q reached.
func naiveReach(c *netlist.Circuit, sites []netlist.SignalID, seedFFs []int32) (gates, ffs, pos map[int32]bool) {
	gates, ffs, pos = map[int32]bool{}, map[int32]bool{}, map[int32]bool{}
	sig := map[netlist.SignalID]bool{}
	var work []netlist.SignalID
	add := func(s netlist.SignalID) {
		if !sig[s] {
			sig[s] = true
			work = append(work, s)
		}
	}
	addFF := func(fi int32) {
		if !ffs[fi] {
			ffs[fi] = true
			add(c.FFs[fi].Q)
		}
	}
	for _, s := range sites {
		add(s)
	}
	for _, fi := range seedFFs {
		addFF(fi)
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, gi := range c.FanoutGates(s) {
			gates[gi] = true
			add(c.Gates[gi].Out)
		}
		for fi, ff := range c.FFs {
			if ff.D == s {
				addFF(int32(fi))
			}
		}
	}
	for oi, s := range c.Outputs {
		if sig[s] {
			pos[int32(oi)] = true
		}
	}
	return gates, ffs, pos
}

// TestSequentialReachCatalog compares SequentialReach with naiveReach
// on random site sets of every catalog circuit, reusing one Reach.
func TestSequentialReachCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range circuits.Names() {
		c, err := circuits.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		var r netlist.Reach
		for trial := 0; trial < 20; trial++ {
			var sites []netlist.SignalID
			for i := rng.Intn(64); i >= 0; i-- {
				sites = append(sites, netlist.SignalID(rng.Intn(len(c.Signals))))
			}
			var seeds []int32
			for i := rng.Intn(3); i > 0 && len(c.FFs) > 0; i-- {
				seeds = append(seeds, int32(rng.Intn(len(c.FFs))))
			}
			c.SequentialReach(sites, seeds, &r)
			gates, ffs, pos := naiveReach(c, sites, seeds)
			for gi := range c.Gates {
				if got := r.Gates[gi>>6]&(1<<uint(gi&63)) != 0; got != gates[int32(gi)] {
					t.Fatalf("%s trial %d: gate %d reached %v, want %v", name, trial, gi, got, gates[int32(gi)])
				}
			}
			if len(r.FFs) != len(ffs) || len(r.POs) != len(pos) {
				t.Fatalf("%s trial %d: %d FFs and %d POs, want %d and %d", name, trial, len(r.FFs), len(r.POs), len(ffs), len(pos))
			}
			for i, fi := range r.FFs {
				if !ffs[fi] || i > 0 && r.FFs[i-1] >= fi {
					t.Fatalf("%s trial %d: FFs %v not the ascending set %v", name, trial, r.FFs, ffs)
				}
			}
			for _, po := range r.POs {
				if !pos[po] {
					t.Fatalf("%s trial %d: PO %d reached, want %v", name, trial, po, pos)
				}
			}
		}
	}
}
