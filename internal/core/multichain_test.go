package core

import "testing"

// TestRunGenerateWithChains: the generation flow supports the
// multi-chain configuration end to end.
func TestRunGenerateWithChains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipBaseline = true
	cfg.Chains = 3
	row, art, err := RunGenerate("s298", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// scan_sel + 3 scan inputs.
	if row.Inp != 3+1+3 {
		t.Errorf("inputs = %d, want 7", row.Inp)
	}
	if row.Stvr != 14 {
		t.Errorf("state vars = %d", row.Stvr)
	}
	if row.FCov < 99 {
		t.Errorf("coverage = %.2f", row.FCov)
	}
	if !(row.OmitLen <= row.RestorLen && row.RestorLen <= row.TestLen) {
		t.Errorf("compaction not monotone: %d -> %d -> %d", row.TestLen, row.RestorLen, row.OmitLen)
	}
	if art.Scan.NumStateVars() != 14 {
		t.Error("artifact design wrong")
	}
}

// TestChainsShortenCompactedLength: more chains must not make the
// compacted result longer (the multichain example's trend, asserted).
func TestChainsShortenCompactedLength(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipBaseline = true
	one, _, err := RunGenerate("s298", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chains = 4
	four, _, err := RunGenerate("s298", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if four.OmitLen > one.OmitLen {
		t.Errorf("4 chains compacted to %d, single chain to %d", four.OmitLen, one.OmitLen)
	}
}
