package seqatpg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/transition"
)

// randomSequence returns n fully specified random vectors for c.
func randomSequence(c *netlist.Circuit, n int, seed uint64) logic.Sequence {
	rng := logic.NewRandFiller(seed)
	seq := make(logic.Sequence, n)
	for i := range seq {
		v := make(logic.Vector, c.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}
	return seq
}

// checkRepack appends seq to mgr in chunks of random length and, at
// every chunk boundary, compares the faulty state of each undetected
// fault with a machine that carries that fault alone and has stepped
// from all-X over the same vectors (single(fi) builds it). The faults
// must thin out enough for the manager to drop a batch, and DetectedAt
// must end equal to want, an independent fault simulation of seq.
func checkRepack(t *testing.T, mgr *Manager, c *netlist.Circuit, seq logic.Sequence, single func(fi int) *sim.Machine, want []int) {
	t.Helper()
	n := len(mgr.DetectedAt)
	oracles := make([]*sim.Machine, n)
	for fi := range oracles {
		oracles[fi] = single(fi)
	}
	startBatches := len(mgr.batches)
	rng := rand.New(rand.NewSource(1))
	for lo := 0; lo < len(seq); {
		hi := min(lo+1+rng.Intn(12), len(seq))
		mgr.AppendSequence(seq[lo:hi])
		for fi, m := range oracles {
			if m == nil {
				continue
			}
			if mgr.Detected(fi) {
				oracles[fi] = nil
				continue
			}
			for _, v := range seq[lo:hi] {
				m.Step(v)
			}
			if got, want := mgr.FaultyState(fi), m.StateSlot(0); !slices.Equal(got, want) {
				t.Fatalf("after %d vectors, fault %d: manager state %v, single-fault machine %v", hi, fi, got, want)
			}
		}
		lo = hi
	}
	if len(mgr.batches) >= startBatches {
		t.Fatalf("%d vectors left %d of %d batches: nothing was repacked", len(seq), len(mgr.batches), startBatches)
	}
	if !slices.Equal(mgr.DetectedAt, want) {
		for fi := range want {
			if mgr.DetectedAt[fi] != want[fi] {
				t.Errorf("fault %d: manager detects at %d, fault simulation at %d", fi, mgr.DetectedAt[fi], want[fi])
			}
		}
	}
	t.Logf("%d faults, %d detected; batches %d -> %d", n, mgr.NumDetected(), startBatches, len(mgr.batches))
}

// TestManagerRepackStuckAt: on circuits with many batches, the manager
// drops batches as faults are detected, and every moved stuck-at fault
// keeps its exact faulty state and detection time (sim.Run with the
// full-sweep kernel is the reference).
func TestManagerRepackStuckAt(t *testing.T) {
	for _, name := range []string{"s298", "s420"} {
		t.Run(name, func(t *testing.T) {
			c := loadScan(t, name).Scan
			faults := fault.Universe(c, true)
			seq := randomSequence(c, 160, 11)
			want := sim.Run(c, seq, faults, sim.Options{Kernel: sim.KernelFull}).DetectedAt
			mgr := NewManager(c, faults)
			defer mgr.Close()
			checkRepack(t, mgr, c, seq, func(fi int) *sim.Machine {
				m := sim.New(c)
				m.InjectBatch(faults[fi : fi+1])
				return m
			}, want)
		})
	}
}

// TestManagerRepackTransition is TestManagerRepackStuckAt for transition
// faults, whose faulty state includes the history of their site: a
// repack that moved only the flip-flop planes would restart a moved
// site at X, and its state or detection time would drift from the
// single-fault machine's and from transition.Run's.
func TestManagerRepackTransition(t *testing.T) {
	for _, name := range []string{"s298", "s420"} {
		t.Run(name, func(t *testing.T) {
			c := loadScan(t, name).Scan
			tf := transition.Universe(c)
			seq := randomSequence(c, 160, 12)
			want := transition.Run(c, seq, tf).DetectedAt
			mgr := newManager(sim.NewSimulator(c, 1), len(tf), func(m *sim.Machine, i int, mask uint64) error {
				return m.InjectTransitionFault(tf[i].Signal, tf[i].SlowToRise, mask)
			})
			defer mgr.Close()
			checkRepack(t, mgr, c, seq, func(fi int) *sim.Machine {
				m := sim.New(c)
				transition.InjectBatch(m, tf[fi:fi+1])
				return m
			}, want)
		})
	}
}

// TestGenerateTransitionMatchesFaultSim: the detection times the
// generator's manager records are those transition.Run finds on the
// generated sequence, fault by fault.
func TestGenerateTransitionMatchesFaultSim(t *testing.T) {
	for _, name := range []string{"s298", "s420"} {
		t.Run(name, func(t *testing.T) {
			sc := loadScan(t, name)
			tf := transition.Universe(sc.Scan)
			res := GenerateTransition(sc, tf, Options{Seed: 3, Passes: 1, Workers: 1})
			check := transition.Run(sc.Scan, res.Sequence, tf)
			bad := 0
			for fi := range tf {
				if res.DetectedAt[fi] != check.DetectedAt[fi] {
					bad++
					if bad <= 5 {
						t.Errorf("fault %s: generator detects at %d, transition.Run at %d",
							tf[fi].Name(sc.Scan), res.DetectedAt[fi], check.DetectedAt[fi])
					}
				}
			}
			if bad > 0 {
				t.Fatalf("%d of %d faults disagree", bad, len(tf))
			}
			t.Logf("%d vectors, %d of %d faults detected", len(res.Sequence), res.NumDetected(), len(tf))
		})
	}
}
