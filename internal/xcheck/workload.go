package xcheck

import (
	"fmt"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/translate"
)

// SynthCircuit is the circuit-spec name that makes Generate synthesize a
// fresh random circuit from the seed instead of loading a catalog entry.
const SynthCircuit = "synth"

// Limits below keep one workload's check budget bounded on the large
// catalog circuits; Generate subsamples deterministically past them.
const (
	maxFaults  = 192 // faults carried by one workload
	maxRefSims = 48  // faults the scalar reference re-simulates
)

// sizing scales a workload to its circuit so that a full-catalog run
// stays inside CI's time budget: the compaction invariants are
// superlinear in sequence length, and the scalar reference is linear in
// gates × vectors × faults. Everything stays a pure function of
// (circuit, seed).
type sizing struct {
	seqMin, seqSpan int // sequence length drawn from [seqMin, seqMin+seqSpan)
	faults, refs    int
	tests, tlen     int // conventional tests and functional vectors per test
}

func sizeFor(gates int) sizing {
	switch {
	case gates > 900: // s5378, s35932, b12 class
		return sizing{seqMin: 12, seqSpan: 9, faults: 64, refs: 6, tests: 1, tlen: 2}
	case gates > 350: // mid-size: s1423, b04, b05, b11...
		return sizing{seqMin: 18, seqSpan: 15, faults: 96, refs: 12, tests: 2, tlen: 2}
	default:
		return sizing{seqMin: 24, seqSpan: 49, faults: maxFaults, refs: maxRefSims, tests: 4, tlen: 3}
	}
}

// Workload is one randomized check input: a scan design, an input
// sequence for it, a fault list with a subset selection, and a
// conventional test set for the translation invariant. Everything is a
// pure function of (Circuit, Seed), so a workload can be regenerated
// from its two identifying fields.
type Workload struct {
	Circuit string
	Seed    uint64

	Design *scan.Circuit
	Seq    logic.Sequence
	// Faults is the (possibly subsampled) fault list on Design.Scan.
	Faults []fault.Fault
	// Subset selects fault indices for the RunSubset differential.
	Subset []int
	// Tests is a conventional scan test set over Design.Orig for the
	// translation invariant.
	Tests []translate.ScanTest
	// RefSample selects the fault indices the scalar reference
	// simulator cross-checks (all of them on small circuits).
	RefSample []int
	// ScanTest is one conventional test over Design.Orig whose scanned-in
	// state holds some X, graded against ScanFaults (a fault sample on
	// Design.Orig) with ScanSkip (same length; >= 0 skips the fault) for
	// the scan-test grader invariant.
	ScanTest   translate.ScanTest
	ScanFaults []fault.Fault
	ScanSkip   []int
}

// rng returns the workload's deterministic generator stream n: every
// consumer derives its own stream so that shrinking one field never
// shifts the randomness of another.
func (w *Workload) rng(stream uint64) *logic.RandFiller {
	return logic.NewRandFiller(w.Seed*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9)
}

// Generate builds the workload for a circuit spec (a catalog name or
// SynthCircuit) and a seed.
func Generate(circuit string, seed uint64) (*Workload, error) {
	w := &Workload{Circuit: circuit, Seed: seed}
	c, err := loadCircuit(circuit, w.rng(0))
	if err != nil {
		return nil, err
	}
	w.Design, err = scan.Insert(c)
	if err != nil {
		return nil, fmt.Errorf("xcheck: %w", err)
	}
	sz := sizeFor(w.Design.Scan.NumGates())
	w.Faults = sampleFaults(fault.Universe(w.Design.Scan, true), sz.faults, w.rng(1))
	w.Seq = genSequence(w.Design, sz, w.rng(2))
	w.Subset = sampleIndices(len(w.Faults), (len(w.Faults)+1)/2, w.rng(3))
	w.Tests = genTests(w.Design, sz, w.rng(4))
	w.RefSample = sampleIndices(len(w.Faults), sz.refs, w.rng(5))
	w.ScanTest, w.ScanFaults, w.ScanSkip = genScanTest(w.Design.Orig, sz, w.rng(10))
	return w, nil
}

func loadCircuit(spec string, rng *logic.RandFiller) (*netlist.Circuit, error) {
	if spec != SynthCircuit {
		c, err := circuits.Load(spec)
		if err != nil {
			return nil, fmt.Errorf("xcheck: %w", err)
		}
		return c, nil
	}
	p := circuits.Params{
		Name:    fmt.Sprintf("xsynth_%x", rng.Uint64()&0xffff),
		Inputs:  2 + rng.Intn(7),
		FFs:     2 + rng.Intn(9),
		Gates:   20 + rng.Intn(61),
		Outputs: 1 + rng.Intn(4),
		Seed:    rng.Uint64(),
	}
	return circuits.Synthesize(p)
}

// sampleFaults keeps at most max faults, chosen by a deterministic
// partial shuffle that preserves the original relative order.
func sampleFaults(all []fault.Fault, max int, rng *logic.RandFiller) []fault.Fault {
	if len(all) <= max {
		return all
	}
	keep := sampleIndices(len(all), max, rng)
	out := make([]fault.Fault, len(keep))
	for i, fi := range keep {
		out[i] = all[fi]
	}
	return out
}

// sampleIndices returns up to max distinct indices of [0, n), sorted
// ascending, chosen uniformly by a partial Fisher-Yates shuffle.
func sampleIndices(n, max int, rng *logic.RandFiller) []int {
	if max > n {
		max = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < max; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	keep := idx[:max]
	sortInts(keep)
	return keep
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// genSequence builds an input sequence for the scan design (30–120
// vectors on small circuits, shorter per sizing on large ones): a mix
// of scan-in loads, bursts of functional vectors and stray single
// shifts, with every unspecified position filled in.
func genSequence(d *scan.Circuit, sz sizing, rng *logic.RandFiller) logic.Sequence {
	target := sz.seqMin + rng.Intn(sz.seqSpan)
	var seq logic.Sequence
	for len(seq) < target {
		switch rng.Intn(4) {
		case 0: // full scan-in of a random state
			state := make([]logic.Value, d.NumStateVars())
			for i := range state {
				state[i] = rng.Next()
			}
			load, _ := d.ScanInSequence(state)
			seq = append(seq, load...)
		case 1: // a stray shift vector
			seq = append(seq, d.ShiftVector(rng.Next()))
		default: // a burst of functional vectors
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				v := logic.NewVector(d.Orig.NumInputs())
				seq = append(seq, d.FunctionalVector(v))
			}
		}
	}
	seq = seq[:target]
	seq.FillX(rng)
	return seq
}

// genTests builds 1–sz.tests conventional scan tests (SI, T) with fully
// specified values over the original circuit.
func genTests(d *scan.Circuit, sz sizing, rng *logic.RandFiller) []translate.ScanTest {
	tests := make([]translate.ScanTest, 1+rng.Intn(sz.tests))
	for ti := range tests {
		si := make(logic.Vector, d.NumStateVars())
		for i := range si {
			si[i] = rng.Next()
		}
		T := make(logic.Sequence, 1+rng.Intn(sz.tlen))
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

// genScanTest builds the scan-test grader's input over the original
// circuit: a scanned-in state with about a quarter X, one to four
// vectors with about an eighth X, a fault sample and a skip list that
// marks about a third of it.
func genScanTest(c *netlist.Circuit, sz sizing, rng *logic.RandFiller) (translate.ScanTest, []fault.Fault, []int) {
	value := func(xOneIn int) logic.Value {
		if rng.Intn(xOneIn) == 0 {
			return logic.X
		}
		return rng.Next()
	}
	si := make(logic.Vector, c.NumFFs())
	for i := range si {
		si[i] = value(4)
	}
	seq := make(logic.Sequence, 1+rng.Intn(4))
	for t := range seq {
		seq[t] = make(logic.Vector, c.NumInputs())
		for i := range seq[t] {
			seq[t][i] = value(8)
		}
	}
	faults := sampleFaults(fault.Universe(c, false), sz.faults, rng)
	skip := make([]int, len(faults))
	for i := range skip {
		skip[i] = -1
		if rng.Intn(3) == 0 {
			skip[i] = 0
		}
	}
	return translate.ScanTest{SI: si, T: seq}, faults, skip
}

// LiftedFaults pairs every stem and gate-input branch fault of the
// original circuit with its image in C_scan. Scan insertion keeps every
// original net under its own name and copies every original gate with
// its inputs in order, so a stem maps to the same-named signal and a
// branch to the same pin of the gate driving the same-named output.
// D-pin faults do not lift: the original D pin became a scan
// multiplexer input. The conventional-application model is evaluated
// on the orig faults, the translated sequence on the lifted ones.
func LiftedFaults(d *scan.Circuit) (orig, lifted []fault.Fault) {
	for _, f := range fault.Universe(d.Orig, false) {
		if f.Site.FF >= 0 {
			continue
		}
		id, ok := d.Scan.SignalByName(d.Orig.SignalName(f.Site.Signal))
		if !ok {
			continue
		}
		lf := f
		lf.Site.Signal = id
		if !f.Site.IsStem() {
			out, ok := d.Scan.SignalByName(d.Orig.SignalName(d.Orig.Gates[f.Site.Gate].Out))
			if !ok || d.Scan.Signals[out].Kind != netlist.KindGate {
				continue
			}
			lf.Site.Gate = d.Scan.Signals[out].Driver
		}
		orig = append(orig, f)
		lifted = append(lifted, lf)
	}
	return orig, lifted
}
