// Package diagnose implements fault-dictionary based diagnosis on top
// of the test sequences this library generates: a dictionary maps every
// modelled stuck-at fault to its failure signature under a sequence
// (which primary outputs mismatch at which cycles), and observed tester
// failures are matched against it to rank candidate faults.
//
// Diagnosis is the natural companion of compact test sequences: the
// aggressive compaction the paper achieves keeps full observability of
// failure cycles because scan operations are explicit vectors, so the
// dictionary loses nothing compared to conventional scan testing.
package diagnose

import (
	"math/bits"
	"sort"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Observation is one recorded mismatch: primary output Output showed
// the complement of the fault-free value at cycle Time.
type Observation struct {
	Time   int
	Output int
}

// Signature is the ordered list of observations a fault produces under
// a sequence.
type Signature []Observation

// Dictionary holds the signature of every fault under one sequence.
type Dictionary struct {
	Faults     []fault.Fault
	Signatures []Signature
}

// Build fault-simulates seq for every fault without fault dropping and
// records complete failure signatures. Cost is one full-length pass per
// 64 faults; build dictionaries once per released test set. Batches run
// on all available cores.
func Build(c *netlist.Circuit, seq logic.Sequence, faults []fault.Fault) *Dictionary {
	return BuildWith(sim.NewSimulator(c, 0), seq, faults)
}

// BuildWith is Build drawing machines from an existing simulator and
// fanning the fault batches out across its workers. Signature writes
// are disjoint per fault, so the dictionary is identical for every
// worker count.
func BuildWith(s *sim.Simulator, seq logic.Sequence, faults []fault.Fault) *Dictionary {
	d := &Dictionary{Faults: faults, Signatures: make([]Signature, len(faults))}
	if len(seq) == 0 || len(faults) == 0 {
		return d
	}
	good := s.Acquire()
	rows := make([][]logic.Value, len(seq))
	for t, v := range seq {
		good.Step(v)
		rows[t] = good.OutputRow()
	}
	s.Release(good)

	s.ForEachBatch(len(faults), func(m *sim.Machine, lo, hi int) {
		m.InjectBatch(faults[lo:hi])
		m.Reset()
		for t, v := range seq {
			m.Step(v)
			for po, gv := range rows[t] {
				if !gv.IsBinary() {
					continue
				}
				gz, gd := sim.ValuePlanes(gv)
				fz, fd := m.OutputPlanes(po)
				for mask := sim.DetectMask(gz, gd, fz, fd); mask != 0; mask &= mask - 1 {
					k := lo + bits.TrailingZeros64(mask)
					d.Signatures[k] = append(d.Signatures[k], Observation{Time: t, Output: po})
				}
			}
		}
	})
	return d
}

// Candidate is one ranked diagnosis result.
type Candidate struct {
	Fault fault.Fault
	Index int
	// Matched counts observations explained by the fault; Missed
	// counts observed failures the fault does not produce; Extra
	// counts failures the fault predicts that were not observed.
	Matched, Missed, Extra int
	// Score is Matched - Missed - Extra, the classic match metric.
	Score int
}

// Diagnose ranks the dictionary's faults against the observed failures,
// best candidates first. Exact-match candidates (Missed == Extra == 0)
// always rank at the top.
func (d *Dictionary) Diagnose(observed []Observation) []Candidate {
	obs := make(map[Observation]bool, len(observed))
	for _, o := range observed {
		obs[o] = true
	}
	var out []Candidate
	for i, sig := range d.Signatures {
		if len(sig) == 0 {
			continue
		}
		c := Candidate{Fault: d.Faults[i], Index: i}
		seen := make(map[Observation]bool, len(sig))
		for _, o := range sig {
			seen[o] = true
			if obs[o] {
				c.Matched++
			} else {
				c.Extra++
			}
		}
		for o := range obs {
			if !seen[o] {
				c.Missed++
			}
		}
		if c.Matched == 0 {
			continue
		}
		c.Score = c.Matched - c.Missed - c.Extra
		out = append(out, c)
	}
	sort.SliceStable(out, func(a, b int) bool {
		ea := out[a].Missed == 0 && out[a].Extra == 0
		eb := out[b].Missed == 0 && out[b].Extra == 0
		if ea != eb {
			return ea
		}
		return out[a].Score > out[b].Score
	})
	return out
}

// Equivalent groups faults with identical signatures — they are
// indistinguishable by this sequence (the diagnostic resolution of the
// test set).
func (d *Dictionary) Equivalent() [][]int {
	byKey := make(map[string][]int)
	for i, sig := range d.Signatures {
		if len(sig) == 0 {
			continue
		}
		key := sigKey(sig)
		byKey[key] = append(byKey[key], i)
	}
	var groups [][]int
	for _, g := range byKey {
		if len(g) > 1 {
			groups = append(groups, g)
		}
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return groups
}

// Resolution returns the number of distinguishable detected-fault
// classes divided by the number of detected faults (1.0 = perfect
// diagnostic resolution).
func (d *Dictionary) Resolution() float64 {
	classes := make(map[string]bool)
	detected := 0
	for _, sig := range d.Signatures {
		if len(sig) == 0 {
			continue
		}
		detected++
		classes[sigKey(sig)] = true
	}
	if detected == 0 {
		return 1
	}
	return float64(len(classes)) / float64(detected)
}

// DetectionCounts returns, per fault, how many (cycle, output)
// observations the sequence produces — the n-detect profile. Faults
// observed many times are robustly covered; counts of 1 mark
// single-point detections that a marginal defect might escape.
func (d *Dictionary) DetectionCounts() []int {
	out := make([]int, len(d.Signatures))
	for i, sig := range d.Signatures {
		out[i] = len(sig)
	}
	return out
}

// MinDetect returns the smallest non-zero detection count and how many
// detected faults sit at that minimum.
func (d *Dictionary) MinDetect() (min, atMin int) {
	for _, sig := range d.Signatures {
		n := len(sig)
		if n == 0 {
			continue
		}
		switch {
		case min == 0 || n < min:
			min, atMin = n, 1
		case n == min:
			atMin++
		}
	}
	return min, atMin
}

func sigKey(sig Signature) string {
	// Observations arrive in simulation order, so the raw encoding is
	// canonical.
	b := make([]byte, 0, len(sig)*8)
	for _, o := range sig {
		b = append(b,
			byte(o.Time), byte(o.Time>>8), byte(o.Time>>16), byte(o.Time>>24),
			byte(o.Output), byte(o.Output>>8), byte(o.Output>>16), byte(o.Output>>24))
	}
	return string(b)
}
