package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRunGenerateS27(t *testing.T) {
	row, art, err := RunGenerate("s27", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if row.Circ != "s27" || row.Inp != 6 || row.Stvr != 3 {
		t.Errorf("row header wrong: %+v", row)
	}
	if row.FCov < 100 {
		t.Errorf("s27 coverage = %.2f", row.FCov)
	}
	if !(row.OmitLen <= row.RestorLen && row.RestorLen <= row.TestLen) {
		t.Errorf("compaction did not monotonically shrink: %d -> %d -> %d",
			row.TestLen, row.RestorLen, row.OmitLen)
	}
	if row.OmitScan > row.OmitLen {
		t.Error("scan vector count exceeds sequence length")
	}
	if row.BaselineCycles <= 0 {
		t.Error("baseline cycles missing")
	}
	// The compacted sequence must still detect everything the raw
	// sequence detected.
	res := sim.Run(art.Scan.ScanCircuit(), art.Omitted, art.Faults, sim.Options{})
	if res.NumDetected() < art.Gen.NumDetected() {
		t.Errorf("compaction lost detections: %d < %d", res.NumDetected(), art.Gen.NumDetected())
	}
}

func TestRunGenerateSkipFlags(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipBaseline = true
	cfg.SkipCompaction = true
	row, art, err := RunGenerate("s27", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.BaselineCycles != 0 || row.OmitLen != 0 {
		t.Errorf("skip flags ignored: %+v", row)
	}
	if art.Restored != nil || art.Omitted != nil {
		t.Error("artifacts present despite SkipCompaction")
	}
}

func TestRunGenerateUnknownCircuit(t *testing.T) {
	if _, _, err := RunGenerate("nope", DefaultConfig()); err == nil {
		t.Error("unknown circuit accepted")
	}
}

func TestRunTranslateS27(t *testing.T) {
	row, art, err := RunTranslate("s27", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Translated length equals conventional cycles by construction:
	// every scan shift is an explicit vector.
	if row.TestLen != row.Cycles {
		t.Errorf("translated length %d != conventional cycles %d", row.TestLen, row.Cycles)
	}
	if !(row.OmitLen <= row.RestorLen && row.RestorLen <= row.TestLen) {
		t.Errorf("compaction not monotone: %d -> %d -> %d", row.TestLen, row.RestorLen, row.OmitLen)
	}
	if row.OmitLen >= row.Cycles && row.Cycles > 40 {
		t.Errorf("no gain over conventional application: %d >= %d", row.OmitLen, row.Cycles)
	}
	if len(art.Base.Tests) == 0 {
		t.Error("baseline produced no tests")
	}
}

func TestRunGenerateSuiteCollectsRows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipBaseline = true
	var log strings.Builder
	rows, err := RunGenerateSuite([]string{"s27", "b02"}, cfg, Progress{Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Circ != "s27" || rows[1].Circ != "b02" {
		t.Fatalf("rows = %+v", rows)
	}
	if !strings.Contains(log.String(), "generate s27") {
		t.Error("progress log empty")
	}
}

func TestTotals(t *testing.T) {
	rows := []GenerateRow{
		{OmitLen: 10, BaselineCycles: 20},
		{OmitLen: 5, BaselineCycles: 0}, // NA row: excluded
		{OmitLen: 7, BaselineCycles: 9},
	}
	omit, base := GenerateTotals(rows)
	if omit != 17 || base != 29 {
		t.Errorf("totals = %d, %d", omit, base)
	}
	trows := []TranslateRow{{OmitLen: 3, Cycles: 5}, {OmitLen: 4, Cycles: 6}}
	o, cy := TranslateTotals(trows)
	if o != 7 || cy != 11 {
		t.Errorf("translate totals = %d, %d", o, cy)
	}
}
