// Package testprog converts between the flat test sequences of this
// library and a segmented "tester program" view: maximal runs of
// scan_sel = 1 become scan operations (complete when the run reaches
// the longest chain's length, limited otherwise) and everything else becomes
// functional vectors. This is the inverse direction of the paper's
// Section 3 translation, useful for inspecting how compaction reshaped
// the scan operations and for exporting sequences to simple test
// equipment.
package testprog

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/logic"
	"repro/internal/scan"
)

// SegmentKind distinguishes scan and functional segments.
type SegmentKind uint8

// Segment kinds.
const (
	// Functional: scan_sel = 0 vectors.
	Functional SegmentKind = iota
	// ScanOp: a maximal run of scan_sel = 1 vectors.
	ScanOp
)

func (k SegmentKind) String() string {
	if k == ScanOp {
		return "scan"
	}
	return "func"
}

// Segment is one maximal run of same-kind vectors.
type Segment struct {
	Kind    SegmentKind
	Start   int // position of the first vector in the flat sequence
	Vectors logic.Sequence
	// Limited marks scan operations shorter than a complete scan.
	Limited bool
}

// Len returns the segment's length in clock cycles.
func (s Segment) Len() int { return len(s.Vectors) }

// Program is a segmented test sequence.
type Program struct {
	Segments []Segment
	// NSV is the length of a complete scan operation: the chain length,
	// or the longest chain's with several chains.
	NSV int
}

// Split segments seq for the given scan design.
func Split(sc *scan.Circuit, seq logic.Sequence) *Program {
	p := &Program{NSV: sc.MaxLen()}
	start := 0
	flush := func(end int, kind SegmentKind) {
		if end == start {
			return
		}
		seg := Segment{Kind: kind, Start: start, Vectors: seq[start:end]}
		if kind == ScanOp {
			seg.Limited = seg.Len() < p.NSV
		}
		p.Segments = append(p.Segments, seg)
		start = end
	}
	for t, v := range seq {
		kind := Functional
		if sc.IsScanSel(v) {
			kind = ScanOp
		}
		if t == 0 {
			continue
		}
		prev := Functional
		if sc.IsScanSel(seq[t-1]) {
			prev = ScanOp
		}
		if kind != prev {
			flush(t, prev)
		}
	}
	if len(seq) > 0 {
		kind := Functional
		if sc.IsScanSel(seq[len(seq)-1]) {
			kind = ScanOp
		}
		flush(len(seq), kind)
	}
	return p
}

// Stats summarizes a program.
type Stats struct {
	Cycles          int
	ScanOps         int
	LimitedScanOps  int
	CompleteScanOps int
	ScanCycles      int
	FuncCycles      int
}

// Stats computes the program's summary.
func (p *Program) Stats() Stats {
	var st Stats
	for _, s := range p.Segments {
		st.Cycles += s.Len()
		if s.Kind == ScanOp {
			st.ScanOps++
			st.ScanCycles += s.Len()
			if s.Limited {
				st.LimitedScanOps++
			} else {
				st.CompleteScanOps++
			}
		} else {
			st.FuncCycles += s.Len()
		}
	}
	return st
}

// Flatten re-concatenates the segments into the original flat sequence.
func (p *Program) Flatten() logic.Sequence {
	var seq logic.Sequence
	for _, s := range p.Segments {
		seq = append(seq, s.Vectors...)
	}
	return seq
}

// Write emits the program in a line-oriented text form:
//
//	# tester program, chain length 3
//	scan 2 limited
//	01x101
//	011100
//	func 1
//	010100
func (p *Program) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# tester program, chain length %d\n", p.NSV)
	for _, s := range p.Segments {
		note := ""
		if s.Kind == ScanOp {
			if s.Limited {
				note = " limited"
			} else {
				note = " complete"
			}
		}
		fmt.Fprintf(bw, "%s %d%s\n", s.Kind, s.Len(), note)
		for _, v := range s.Vectors {
			fmt.Fprintln(bw, v.String())
		}
	}
	return bw.Flush()
}

// Format returns the program text.
func (p *Program) Format() string {
	var sb strings.Builder
	if err := p.Write(&sb); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return sb.String()
}
