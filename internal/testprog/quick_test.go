package testprog

import (
	"testing"
	"testing/quick"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/scan"
)

// TestSplitFlattenIdentityProperty: Split followed by Flatten is the
// identity on arbitrary mixed sequences, and the segment boundaries
// partition the sequence.
func TestSplitFlattenIdentityProperty(t *testing.T) {
	c, err := circuits.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pattern uint32, fill uint64) bool {
		rng := logic.NewRandFiller(fill | 1)
		var seq logic.Sequence
		for i := 0; i < 20; i++ {
			var v logic.Vector
			if pattern&(1<<uint(i%32)) != 0 {
				v = sc.ShiftVector(rng.Next())
			} else {
				v = sc.FunctionalVector(logic.NewVector(4))
			}
			for j := range v {
				if v[j] == logic.X {
					v[j] = rng.Next()
				}
			}
			seq = append(seq, v)
		}
		p := Split(sc, seq)
		flat := p.Flatten()
		if len(flat) != len(seq) {
			return false
		}
		for i := range seq {
			if flat[i].String() != seq[i].String() {
				return false
			}
		}
		// Segments alternate in kind and partition [0, len).
		pos := 0
		for i, seg := range p.Segments {
			if seg.Start != pos || seg.Len() == 0 {
				return false
			}
			if i > 0 && seg.Kind == p.Segments[i-1].Kind {
				return false
			}
			pos += seg.Len()
		}
		return pos == len(seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
