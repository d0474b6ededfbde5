package sim

import "testing"

func TestPartitionFaultsShape(t *testing.T) {
	cases := []struct {
		n, parts int
		want     int // expected number of ranges
	}{
		{0, 4, 1},
		{10, 1, 1},
		{10, 4, 1},     // one batch, cannot split
		{64, 2, 1},     // still one batch
		{65, 2, 2},     // two batches, one each
		{640, 4, 4},    // ten batches over four parts
		{641, 100, 11}, // eleven batches cap the parts
		{1000, 3, 3},   // uneven tail
		{Slots * 7, 7, 7},
	}
	for _, c := range cases {
		rs := PartitionFaults(c.n, c.parts)
		if len(rs) != c.want {
			t.Errorf("PartitionFaults(%d,%d): %d ranges, want %d", c.n, c.parts, len(rs), c.want)
			continue
		}
		// Ranges must tile [0, n) contiguously with Slots-aligned starts.
		pos := 0
		for i, r := range rs {
			if r.Start != pos {
				t.Errorf("PartitionFaults(%d,%d): range %d starts at %d, want %d", c.n, c.parts, i, r.Start, pos)
			}
			if r.Start%Slots != 0 {
				t.Errorf("PartitionFaults(%d,%d): range %d start %d not Slots-aligned", c.n, c.parts, i, r.Start)
			}
			if r.End <= r.Start && c.n > 0 {
				t.Errorf("PartitionFaults(%d,%d): empty range %d", c.n, c.parts, i)
			}
			pos = r.End
		}
		if pos != c.n {
			t.Errorf("PartitionFaults(%d,%d): ranges end at %d, want %d", c.n, c.parts, pos, c.n)
		}
	}
}

func TestFaultRangeIndices(t *testing.T) {
	r := FaultRange{128, 131}
	idx := r.Indices()
	if len(idx) != 3 || idx[0] != 128 || idx[2] != 130 {
		t.Errorf("Indices() = %v", idx)
	}
}
