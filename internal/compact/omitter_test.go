package compact

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
)

// trialOracle is what a removal trial must do, derived without the
// trial engine: the at-stake faults in packing order, each one's
// deadline, the verdict, and the detection times a successful trial
// commits.
type trialOracle struct {
	stake    []int // fault indices, earliest-deadline batch first, slot order within a batch
	deadline []int // parallel to stake
	ok       bool
	failAt   int   // position in stake of the first fault that misses its deadline, or -1
	detAt    []int // detection times after a successful trial
}

// oracleTrial applies the per-batch rule to detAt and re-detects the
// at-stake faults by a sim.KernelFull run of the trial sequence.
func oracleTrial(c *netlist.Circuit, cur logic.Sequence, faults []fault.Fault, detAt []int, lo, hi, slack int) trialOracle {
	removed := hi - lo
	trial := append(append(logic.Sequence{}, cur[:lo]...), cur[hi:]...)
	maxDet := map[int]int{} // per batch, in trial positions
	var or trialOracle
	for fi, d := range detAt {
		if d == sim.NotDetected || d < lo {
			continue
		}
		or.stake = append(or.stake, fi)
		if d >= hi {
			d -= removed
		}
		if d > maxDet[fi/sim.Slots] {
			maxDet[fi/sim.Slots] = d
		}
	}
	sort.SliceStable(or.stake, func(i, j int) bool {
		return maxDet[or.stake[i]/sim.Slots] < maxDet[or.stake[j]/sim.Slots]
	})
	last := 0
	for _, d := range maxDet {
		if d > last {
			last = d
		}
	}
	maxBound := last + slack
	if maxBound > len(trial) {
		maxBound = len(trial)
	}
	sub := make([]fault.Fault, len(or.stake))
	for i, fi := range or.stake {
		sub[i] = faults[fi]
		dl := maxDet[fi/sim.Slots] + 4*slack
		if dl > maxBound {
			dl = maxBound
		}
		or.deadline = append(or.deadline, dl)
	}
	res := sim.Run(c, trial, sub, sim.Options{Kernel: sim.KernelFull})
	or.ok, or.failAt = true, -1
	or.detAt = append([]int(nil), detAt...)
	for i, fi := range or.stake {
		d := res.DetectedAt[i]
		if d == sim.NotDetected || d >= or.deadline[i] {
			or.ok, or.failAt = false, i
			break
		}
		or.detAt[fi] = d
	}
	return or
}

// TestPackedTrialsMatchOracle runs seeded random removal trials through
// tryRemove and checks each verdict, the committed detection times and
// the number of groups simulated against oracleTrial. It also requires
// that the trials covered the packing's corner cases: more than 64
// at-stake faults, a failure in a group other than the first, and a
// group mixing faults of three or more batches.
func TestPackedTrialsMatchOracle(t *testing.T) {
	synth, err := circuits.Synthesize(circuits.Params{
		Name: "packed", Inputs: 5, FFs: 10, Gates: 120, Outputs: 3, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	var multiGroup, laterFail, threeBatch, accepted int
	for ci, name := range []string{"s27", "s298", "synth"} {
		c := synth
		if name != "synth" {
			if c, err = circuits.Load(name); err != nil {
				t.Fatal(err)
			}
		}
		sc, err := scan.Insert(c)
		if err != nil {
			t.Fatal(err)
		}
		cs := sc.Scan
		faults := fault.Universe(cs, true)
		rng := rand.New(rand.NewSource(int64(ci + 1)))
		seq := make(logic.Sequence, 240)
		for i := range seq {
			v := logic.NewVector(cs.NumInputs())
			for j := range v {
				v[j] = logic.Value(rng.Intn(2))
			}
			seq[i] = v
		}
		o := newOmitter(sim.NewSimulator(cs, 1), seq, faults)
		for top := len(o.cur); top > 0; {
			winLo := top - 1 - rng.Intn(24)
			if winLo < 0 {
				winLo = 0
			}
			o.beginWindow(winLo)
			for trial := 0; trial < 8 && winLo < len(o.cur); trial++ {
				// Bias toward the window boundary, where most faults are
				// at stake.
				lo := winLo + rng.Intn(1+rng.Intn(len(o.cur)-winLo))
				hi := lo + 1 + rng.Intn([]int{1, 4, 16}[rng.Intn(3)])
				if hi > len(o.cur) {
					hi = len(o.cur)
				}
				slack := []int{1, 2, 4, 2*cs.NumFFs() + 50}[rng.Intn(4)]
				want := oracleTrial(cs, o.cur, faults, o.detAt, lo, hi, slack)
				wantCur := append(append(logic.Sequence{}, o.cur[:lo]...), o.cur[hi:]...)
				sims := o.sims
				got := o.tryRemove(lo, hi, slack)
				if got != want.ok {
					t.Fatalf("%s trial [%d,%d) slack %d: tryRemove = %v, oracle %v (%d at stake, first miss at %d)",
						name, lo, hi, slack, got, want.ok, len(want.stake), want.failAt)
				}
				groups := (len(want.stake) + sim.Slots - 1) / sim.Slots
				if !want.ok {
					groups = want.failAt/sim.Slots + 1
				}
				if o.sims-sims != groups {
					t.Fatalf("%s trial [%d,%d): simulated %d groups, want %d", name, lo, hi, o.sims-sims, groups)
				}
				if got {
					accepted++
					if len(o.cur) != len(wantCur) {
						t.Fatalf("%s trial [%d,%d): committed %d vectors, want %d", name, lo, hi, len(o.cur), len(wantCur))
					}
					for fi := range faults {
						if o.detAt[fi] != want.detAt[fi] {
							t.Fatalf("%s trial [%d,%d): fault %d committed at %d, oracle %d",
								name, lo, hi, fi, o.detAt[fi], want.detAt[fi])
						}
					}
				}
				if len(want.stake) > sim.Slots {
					multiGroup++
				}
				if want.failAt >= sim.Slots {
					laterFail++
				}
				for g := 0; g < groups; g++ {
					end := (g + 1) * sim.Slots
					if end > len(want.stake) {
						end = len(want.stake)
					}
					batches := map[int]bool{}
					for _, fi := range want.stake[g*sim.Slots : end] {
						batches[fi/sim.Slots] = true
					}
					if len(batches) >= 3 {
						threeBatch++
					}
				}
			}
			top = winLo
		}
		// Every committed detection time is the first detection on the
		// final working sequence.
		full := sim.Run(cs, o.cur, faults, sim.Options{Kernel: sim.KernelFull})
		for fi, d := range o.detAt {
			if d != sim.NotDetected && full.DetectedAt[fi] != d {
				t.Errorf("%s: fault %d committed at %d, final sequence detects it at %d", name, fi, d, full.DetectedAt[fi])
			}
		}
		o.close()
	}
	t.Logf("trials: %d accepted, %d with >64 at stake, %d failing past group 0, %d groups of >=3 batches",
		accepted, multiGroup, laterFail, threeBatch)
	if accepted == 0 || multiGroup == 0 || laterFail == 0 || threeBatch == 0 {
		t.Errorf("corner cases not covered: %d accepted, %d multi-group, %d later-group failures, %d three-batch groups",
			accepted, multiGroup, laterFail, threeBatch)
	}
}
