// Package report renders the experiment results in the layouts of the
// paper's tables: per-vector sequence listings (Tables 1, 3, 4), test
// set listings (Table 2), fault coverage (Table 5), generation +
// compaction lengths (Table 6) and translation results (Table 7).
package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/translate"
)

// RunBanner renders the one-line run status commands print last: the
// status name, plus resume advice when the run stopped with a
// checkpoint file attached.
func RunBanner(status runctl.Status, checkpoint string) string {
	if status.Stopped() && checkpoint != "" {
		return fmt.Sprintf("run status: %s — partial results saved; continue with -resume -checkpoint %s", status, checkpoint)
	}
	if status.Stopped() {
		return fmt.Sprintf("run status: %s — partial results (no checkpoint file; rerun with -checkpoint to make the run resumable)", status)
	}
	return fmt.Sprintf("run status: %s", status)
}

// ObsSummary renders the final instrument snapshot as a per-phase
// summary table: instruments grouped by their dot-separated phase
// prefix ("generate.attempts" under generate), counters and gauges as
// plain numbers, timers as total time with the observation count. An
// empty snapshot renders as the empty string so commands can print the
// result unconditionally.
func ObsSummary(s obs.Snapshot) string {
	names := s.Names()
	if len(names) == 0 {
		return ""
	}
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	var sb strings.Builder
	sb.WriteString("Run metrics\n")
	prev := ""
	for _, n := range names {
		phase, _, _ := strings.Cut(n, ".")
		if prev != "" && phase != prev {
			sb.WriteByte('\n')
		}
		prev = phase
		switch {
		case s.Counters != nil && hasKey(s.Counters, n):
			fmt.Fprintf(&sb, "  %-*s  %d\n", width, n, s.Counters[n])
		case s.Gauges != nil && hasKey(s.Gauges, n):
			fmt.Fprintf(&sb, "  %-*s  %d\n", width, n, s.Gauges[n])
		default:
			t := s.Timers[n]
			fmt.Fprintf(&sb, "  %-*s  %v (%d)\n", width, n,
				time.Duration(t.Nanos).Round(time.Millisecond), t.Count)
		}
	}
	return sb.String()
}

func hasKey(m map[string]int64, k string) bool {
	_, ok := m[k]
	return ok
}

// SequenceTable renders a test sequence for a scan design in the style
// of the paper's Table 1: one row per time unit, one column per original
// primary input, then the scan control inputs (scan_sel and the scan_inp
// of every chain) under their actual signal names.
func SequenceTable(sc *scan.Circuit, seq logic.Sequence, title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	c := sc.ScanCircuit()
	header := []string{"t"}
	for _, in := range c.Inputs {
		header = append(header, c.SignalName(in))
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
		if widths[i] < 2 {
			widths[i] = 2
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for t, v := range seq {
		cells := []string{fmt.Sprint(t)}
		for i := range c.Inputs {
			cells = append(cells, v[i].String())
		}
		writeRow(cells)
	}
	return sb.String()
}

// TestSetTable renders a conventional scan test set in the style of the
// paper's Table 2: one row per test with its scan-in state and primary
// input sequence.
func TestSetTable(tests []translate.ScanTest, title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%3s  %-12s  %s\n", title, "i", "SI_i", "T_i")
	for i, t := range tests {
		var tvecs []string
		for _, v := range t.T {
			tvecs = append(tvecs, v.String())
		}
		fmt.Fprintf(&sb, "%3d  %-12s  %s\n", i+1, t.SI.String(), strings.Join(tvecs, " "))
	}
	return sb.String()
}

// Table5 renders fault coverage rows in the paper's Table 5 layout.
func Table5(rows []core.GenerateRow) string {
	var sb strings.Builder
	sb.WriteString("Table 5: Fault coverage after test generation\n")
	fmt.Fprintf(&sb, "%-8s %5s %5s %7s %8s %7s %6s\n",
		"circ", "inp", "stvr", "faults", "total", "fcov", "funct")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %5d %5d %7d %8d %7.2f %6d\n",
			r.Circ, r.Inp, r.Stvr, r.Faults, r.Detected, r.FCov, r.Funct)
	}
	return sb.String()
}

// Table6 renders test lengths after generation and compaction in the
// paper's Table 6 layout, including the total row over circuits with a
// baseline result.
func Table6(rows []core.GenerateRow) string {
	var sb strings.Builder
	sb.WriteString("Table 6: Test length after test generation and compaction\n")
	fmt.Fprintf(&sb, "%-8s %7s %6s %7s %6s %7s %6s %4s %8s\n",
		"circ", "test", "scan", "restor", "scan", "omit", "scan", "ext", "base cyc")
	for _, r := range rows {
		ext := ""
		if r.ExtDet > 0 {
			ext = fmt.Sprintf("+%d", r.ExtDet)
		}
		base := "NA"
		if r.BaselineCycles > 0 {
			base = fmt.Sprint(r.BaselineCycles)
		}
		fmt.Fprintf(&sb, "%-8s %7d %6d %7d %6d %7d %6d %4s %8s\n",
			r.Circ, r.TestLen, r.TestScan, r.RestorLen, r.RestorScan,
			r.OmitLen, r.OmitScan, ext, base)
	}
	omitTotal, baseTotal := core.GenerateTotals(rows)
	fmt.Fprintf(&sb, "%-8s %7s %6s %7s %6s %7d %6s %4s %8d\n",
		"total", "", "", "", "", omitTotal, "", "", baseTotal)
	return sb.String()
}

// Table7 renders translation + compaction results in the paper's
// Table 7 layout.
func Table7(rows []core.TranslateRow) string {
	var sb strings.Builder
	sb.WriteString("Table 7: Results for translated test sets\n")
	fmt.Fprintf(&sb, "%-8s %7s %6s %7s %6s %7s %6s %8s\n",
		"circ", "test", "scan", "restor", "scan", "omit", "scan", "cyc")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %7d %6d %7d %6d %7d %6d %8d\n",
			r.Circ, r.TestLen, r.TestScan, r.RestorLen, r.RestorScan,
			r.OmitLen, r.OmitScan, r.Cycles)
	}
	omitTotal, cycTotal := core.TranslateTotals(rows)
	fmt.Fprintf(&sb, "%-8s %7s %6s %7s %6s %7d %6s %8d\n",
		"total", "", "", "", "", omitTotal, "", cycTotal)
	return sb.String()
}

// ScanRuns summarizes the scan_sel=1 run-length structure of a
// sequence: how many maximal runs of each length occur. The paper's
// discussion of limited scan operations is exactly about these runs.
func ScanRuns(sc *scan.Circuit, seq logic.Sequence) map[int]int {
	runs := make(map[int]int)
	run := 0
	for _, v := range seq {
		if sc.IsScanSel(v) {
			run++
			continue
		}
		if run > 0 {
			runs[run]++
		}
		run = 0
	}
	if run > 0 {
		runs[run]++
	}
	return runs
}
