package scan

import (
	"testing"
	"testing/quick"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/sim"
)

// TestScanInIdentityProperty: for any state and any chain count, a
// scan-in load establishes exactly that state (quick-checked over
// random states).
func TestScanInIdentityProperty(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 5} {
		d, err := InsertChains(c, n)
		if err != nil {
			t.Fatal(err)
		}
		f := func(bits uint64) bool {
			state := make([]logic.Value, d.NumStateVars())
			for i := range state {
				state[i] = logic.Zero
				if bits&(1<<uint(i%64)) != 0 {
					state[i] = logic.One
				}
			}
			seq, err := d.ScanInSequence(state)
			if err != nil {
				return false
			}
			m := sim.New(d.Scan)
			for _, v := range seq {
				m.Step(v)
			}
			got := m.StateSlot(0)
			for i := range state {
				if got[i] != state[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%d chains: %v", n, err)
		}
	}
}

// TestScanOutRoundTripProperty: scanning a random state out through the
// chain observes every bit on scan_out, newest position first.
func TestScanOutRoundTripProperty(t *testing.T) {
	c, _ := circuits.Load("s27")
	sc, err := Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	f := func(bits uint8) bool {
		nsv := sc.NumStateVars()
		state := make([]logic.Value, nsv)
		for i := range state {
			state[i] = logic.Zero
			if bits&(1<<uint(i)) != 0 {
				state[i] = logic.One
			}
		}
		m := sim.New(sc.Scan)
		m.SetStateBroadcast(state)
		// Shift nsv times; scan_out at shift k shows position nsv-1-k.
		for k := 0; k < nsv; k++ {
			m.Step(sc.ShiftVector(logic.Zero))
			if got := m.OutputSlot(sc.OutPOs[0], 0); got != state[nsv-1-k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
