package compact

import (
	"hash/fnv"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
)

// hashSeq fingerprints a sequence's exact vector content.
func hashSeq(seq logic.Sequence) uint64 {
	h := fnv.New64a()
	for _, v := range seq {
		h.Write([]byte(v.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestRestoreThenOmitGolden pins the full compaction pipeline to the
// output of the pre-parallelism serial implementation (goldens captured
// on this repository before the Simulator existed). Machine pooling,
// worker fan-out, the sort.Slice ordering and restoration fault
// dropping must all be invisible in the result.
func TestRestoreThenOmitGolden(t *testing.T) {
	golden := []struct {
		circuit                 string
		raw, restored, omitted  int
		restorHash, omittedHash uint64
		rExtra, oExtra          int
	}{
		{"s27", 32, 22, 18, 0xcc244bfbb3717983, 0x291f1d64efe0ac52, 0, 0},
		{"s298", 406, 302, 241, 0x337005ab71d8ba5b, 0x7b5b86c26aca9238, 0, 0},
		{"s344", 274, 252, 176, 0xee62e965285934d8, 0xcca82642fc9dde5a, 0, 0},
	}
	for _, g := range golden {
		g := g
		t.Run(g.circuit, func(t *testing.T) {
			c, err := circuits.Load(g.circuit)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scan.Insert(c)
			if err != nil {
				t.Fatal(err)
			}
			faults := fault.Universe(sc.Scan, true)
			gen := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
			if len(gen.Sequence) != g.raw {
				t.Fatalf("raw sequence length %d, golden %d", len(gen.Sequence), g.raw)
			}
			restored, omitted, rst, ost := RestoreThenOmit(sc.Scan, gen.Sequence, faults)
			if len(restored) != g.restored || hashSeq(restored) != g.restorHash {
				t.Errorf("restored: len %d hash %#x, golden len %d hash %#x",
					len(restored), hashSeq(restored), g.restored, g.restorHash)
			}
			if len(omitted) != g.omitted || hashSeq(omitted) != g.omittedHash {
				t.Errorf("omitted: len %d hash %#x, golden len %d hash %#x",
					len(omitted), hashSeq(omitted), g.omitted, g.omittedHash)
			}
			if rst.ExtraDetected != g.rExtra || ost.ExtraDetected != g.oExtra {
				t.Errorf("extra detections (%d, %d), golden (%d, %d)",
					rst.ExtraDetected, ost.ExtraDetected, g.rExtra, g.oExtra)
			}
		})
	}
}

// TestOmitWorkGolden pins omission's seed-1 work in the pipeline: the
// Stats work counts and the trial, reconvergence and window-memo
// counters. Omission's trial traces are edits of the committed trace,
// and a trial counts as a reconvergence cutoff when its trace spliced,
// so the cutoffs move if the splice compares other positions than the
// trial produces. On s420 that includes a trial whose trajectory meets
// the committed one only at its last position.
func TestOmitWorkGolden(t *testing.T) {
	golden := []struct {
		circuit                 string
		batchSteps              int64
		simulations             int
		trials, reconv, winHits int64
	}{
		{"s298", 84838, 633, 535, 516, 2574},
		{"s420", 534920, 1694, 1343, 1301, 6421},
	}
	for _, g := range golden {
		t.Run(g.circuit, func(t *testing.T) {
			c, err := circuits.Load(g.circuit)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scan.Insert(c)
			if err != nil {
				t.Fatal(err)
			}
			faults := fault.Universe(sc.Scan, true)
			gen := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
			reg := obs.NewRegistry()
			_, _, _, ost := RestoreThenOmitOpts(sc.Scan, gen.Sequence, faults, Options{Obs: reg})
			n := reg.Snapshot().Counters
			if ost.BatchSteps != g.batchSteps || ost.Simulations != g.simulations {
				t.Errorf("batch steps %d, simulations %d; golden %d, %d",
					ost.BatchSteps, ost.Simulations, g.batchSteps, g.simulations)
			}
			if n["omit.trials"] != g.trials || n["omit.reconv_cutoffs"] != g.reconv || n["omit.window_memo_hits"] != g.winHits {
				t.Errorf("trials %d, reconvergence cutoffs %d, window-memo hits %d; golden %d, %d, %d",
					n["omit.trials"], n["omit.reconv_cutoffs"], n["omit.window_memo_hits"], g.trials, g.reconv, g.winHits)
			}
		})
	}
}

// TestADIOrderGolden pins the pipeline output under OrderADI. The ADI
// order is the one option that legitimately changes the compacted
// sequence, so it gets its own goldens; on these circuits it beats the
// paper's detection order (s298: 241 → 195 final vectors).
func TestADIOrderGolden(t *testing.T) {
	golden := []struct {
		circuit                 string
		raw, restored, omitted  int
		restorHash, omittedHash uint64
	}{
		{"s27", 32, 21, 18, 0x715b61fc0b478aaa, 0xb0a7f6ab5010a67a},
		{"s298", 406, 233, 195, 0x022c7d20d554dcf7, 0x9ec919df3d652c4a},
		{"s344", 274, 232, 173, 0xf34944c2d96ca8bc, 0x6db76292ff6e0941},
	}
	for _, g := range golden {
		g := g
		t.Run(g.circuit, func(t *testing.T) {
			c, err := circuits.Load(g.circuit)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scan.Insert(c)
			if err != nil {
				t.Fatal(err)
			}
			faults := fault.Universe(sc.Scan, true)
			gen := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
			if len(gen.Sequence) != g.raw {
				t.Fatalf("raw sequence length %d, golden %d", len(gen.Sequence), g.raw)
			}
			restored, omitted, _, _ := RestoreThenOmitOpts(sc.Scan, gen.Sequence, faults, Options{Order: OrderADI})
			if len(restored) != g.restored || hashSeq(restored) != g.restorHash {
				t.Errorf("restored: len %d hash %#x, golden len %d hash %#x",
					len(restored), hashSeq(restored), g.restored, g.restorHash)
			}
			if len(omitted) != g.omitted || hashSeq(omitted) != g.omittedHash {
				t.Errorf("omitted: len %d hash %#x, golden len %d hash %#x",
					len(omitted), hashSeq(omitted), g.omitted, g.omittedHash)
			}
		})
	}
}

// TestEngineOutputsIdentical: the scratch engine reproduces the
// incremental engine's sequences and semantic stats exactly, in both
// restoration orders (the xcheck invariant "compact/engines" covers the
// whole seeded catalog; this is the fast in-package version).
func TestEngineOutputsIdentical(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(sc.Scan, true)
	gen := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
	semantic := func(st Stats) [4]int {
		return [4]int{st.BeforeLen, st.AfterLen, st.TargetFaults, st.ExtraDetected}
	}
	for _, order := range []Order{OrderDetection, OrderADI} {
		rInc, oInc, rstInc, ostInc := RestoreThenOmitOpts(sc.Scan, gen.Sequence, faults,
			Options{Engine: EngineIncremental, Order: order})
		rScr, oScr, rstScr, ostScr := RestoreThenOmitOpts(sc.Scan, gen.Sequence, faults,
			Options{Engine: EngineScratch, Order: order})
		if hashSeq(rInc) != hashSeq(rScr) || len(rInc) != len(rScr) {
			t.Errorf("order=%s: restored sequences differ (incremental %d, scratch %d)", order, len(rInc), len(rScr))
		}
		if hashSeq(oInc) != hashSeq(oScr) || len(oInc) != len(oScr) {
			t.Errorf("order=%s: omitted sequences differ (incremental %d, scratch %d)", order, len(oInc), len(oScr))
		}
		if semantic(rstInc) != semantic(rstScr) {
			t.Errorf("order=%s: restore semantic stats differ: %v vs %v", order, semantic(rstInc), semantic(rstScr))
		}
		if semantic(ostInc) != semantic(ostScr) {
			t.Errorf("order=%s: omit semantic stats differ: %v vs %v", order, semantic(ostInc), semantic(ostScr))
		}
	}
}

// TestCompactionWorkerDeterminism: the compacted sequence, the work
// accounting and the omission engine's memo and reconvergence counters
// must be identical for one worker and many — parallelism only changes
// wall-clock time.
func TestCompactionWorkerDeterminism(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(sc.Scan, true)
	rng := logic.NewRandFiller(11)
	seq := make(logic.Sequence, 160)
	for i := range seq {
		v := logic.NewVector(sc.Scan.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}

	reg1, regN := obs.NewRegistry(), obs.NewRegistry()
	r1, o1, rst1, ost1 := RestoreThenOmitOpts(sc.Scan, seq, faults, Options{Workers: 1, Obs: reg1})
	rN, oN, rstN, ostN := RestoreThenOmitOpts(sc.Scan, seq, faults, Options{Workers: 8, Obs: regN})
	if hashSeq(r1) != hashSeq(rN) || len(r1) != len(rN) {
		t.Errorf("restored sequences differ: workers=1 len %d, workers=8 len %d", len(r1), len(rN))
	}
	if hashSeq(o1) != hashSeq(oN) || len(o1) != len(oN) {
		t.Errorf("omitted sequences differ: workers=1 len %d, workers=8 len %d", len(o1), len(oN))
	}
	if rst1 != rstN {
		t.Errorf("restore stats differ: %+v vs %+v", rst1, rstN)
	}
	if ost1 != ostN {
		t.Errorf("omit stats differ: %+v vs %+v", ost1, ostN)
	}
	for _, name := range []string{"omit.window_memo_hits", "omit.reconv_cutoffs"} {
		if a, b := reg1.Snapshot().Counters[name], regN.Snapshot().Counters[name]; a != b {
			t.Errorf("%s differs: workers=1 %d, workers=8 %d", name, a, b)
		}
	}

	// An externally supplied shared simulator must behave identically.
	s := sim.NewSimulator(sc.Scan, 4)
	rS, oS, _, _ := RestoreThenOmitOpts(sc.Scan, seq, faults, Options{Sim: s})
	if hashSeq(rS) != hashSeq(r1) || hashSeq(oS) != hashSeq(o1) {
		t.Error("shared-simulator run differs from private-simulator run")
	}
}
