package scan

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// chainCounts are the designs the chain-agnostic tests cover: the
// paper's single chain and several chains.
var chainCounts = []int{1, 3}

func insert(t *testing.T, name string, n int) *Circuit {
	t.Helper()
	c, err := circuits.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := InsertChains(c, n)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// forChains runs f once per chain count as a subtest.
func forChains(t *testing.T, f func(t *testing.T, n int)) {
	for _, n := range chainCounts {
		t.Run(fmt.Sprintf("chains=%d", n), func(t *testing.T) { f(t, n) })
	}
}

func TestInsertInterface(t *testing.T) {
	checkInterface(t, "s27", 1, []int{3})
}

func TestInsertChainsInterface(t *testing.T) {
	checkInterface(t, "s298", 3, []int{5, 5, 4}) // 14 flip-flops
}

// checkInterface inserts n chains into the named circuit and checks the
// chain lengths, the added pins and gates, and that the chain/position
// maps partition the flip-flops.
func checkInterface(t *testing.T, name string, n int, lens []int) {
	t.Helper()
	sc := insert(t, name, n)
	if sc.NumChains() != n || fmt.Sprint(sc.Lens) != fmt.Sprint(lens) {
		t.Fatalf("%s: %d chains of lengths %v, want %v", name, sc.NumChains(), sc.Lens, lens)
	}
	if sc.MaxLen() != lens[0] || sc.NumStateVars() != sc.Orig.NumFFs() {
		t.Errorf("%s: MaxLen %d, state vars %d", name, sc.MaxLen(), sc.NumStateVars())
	}
	// One extra select input, one input and one output per chain.
	if sc.Scan.NumInputs() != sc.Orig.NumInputs()+1+n {
		t.Errorf("%s: inputs = %d", name, sc.Scan.NumInputs())
	}
	if sc.Scan.NumOutputs() != sc.Orig.NumOutputs()+n {
		t.Errorf("%s: outputs = %d", name, sc.Scan.NumOutputs())
	}
	if sc.Scan.Inputs[sc.SelPI] != mustSignal(t, sc.Scan, sc.SelName) {
		t.Errorf("%s: SelPI wrong", name)
	}
	for k, pi := range sc.InpPIs {
		if sc.Scan.Inputs[pi] != mustSignal(t, sc.Scan, sc.InpNames[k]) {
			t.Errorf("%s: InpPIs[%d] wrong", name, k)
		}
	}
	// Gate overhead: one shared inverter plus 3 gates per flip-flop.
	wantGates := sc.Orig.NumGates() + 1 + 3*sc.NumStateVars()
	if sc.Scan.NumGates() != wantGates {
		t.Errorf("%s: gates = %d, want %d", name, sc.Scan.NumGates(), wantGates)
	}
	// Chain/position maps are a partition.
	seen := map[[2]int]bool{}
	for f := 0; f < sc.NumStateVars(); f++ {
		k := [2]int{sc.ChainOf[f], sc.PosOf[f]}
		if seen[k] {
			t.Fatalf("%s: duplicate chain slot %v", name, k)
		}
		seen[k] = true
		if sc.PosOf[f] >= sc.Lens[sc.ChainOf[f]] {
			t.Fatalf("%s: position %d beyond chain %d", name, sc.PosOf[f], sc.ChainOf[f])
		}
	}
}

func TestInsertChainsClamping(t *testing.T) {
	if sc := insert(t, "s27", 99); sc.NumChains() != 3 {
		t.Errorf("clamped chains = %d, want 3 (one per flip-flop)", sc.NumChains())
	}
	if sc := insert(t, "s27", 0); sc.NumChains() != 1 {
		t.Errorf("clamped chains = %d, want 1", sc.NumChains())
	}
}

func mustSignal(t *testing.T, c *netlist.Circuit, name string) netlist.SignalID {
	t.Helper()
	id, ok := c.SignalByName(name)
	if !ok {
		t.Fatalf("signal %s missing", name)
	}
	return id
}

// TestScanInLoadsState shifts a state in through the scan inputs and
// verifies every flip-flop holds the requested value after MaxLen
// cycles.
func TestScanInLoadsState(t *testing.T) {
	forChains(t, func(t *testing.T, n int) {
		sc := insert(t, "s298", n)
		rng := logic.NewRandFiller(5)
		want := make([]logic.Value, sc.NumStateVars())
		for i := range want {
			want[i] = rng.Next()
		}
		seq, err := sc.ScanInSequence(want)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != sc.MaxLen() {
			t.Fatalf("scan-in length %d, want %d", len(seq), sc.MaxLen())
		}
		m := sim.New(sc.Scan)
		for _, v := range seq {
			m.Step(v)
		}
		got := m.StateSlot(0)
		for f, w := range want {
			if got[f] != w {
				t.Errorf("FF %d = %v, want %v", f, got[f], w)
			}
		}
	})
}

// TestScanOutObservesChain loads a state and shifts it out, checking the
// serial values on scan_out.
func TestScanOutObservesChain(t *testing.T) {
	sc := insert(t, "s27", 1)
	state := []logic.Value{logic.One, logic.Zero, logic.One}
	seq, _ := sc.ScanInSequence(state)
	m := sim.New(sc.Scan)
	for _, v := range seq {
		m.Step(v)
	}
	// Shift out: scan_out shows FF2, then FF1, then FF0.
	wantOrder := []logic.Value{state[2], state[1], state[0]}
	for k, w := range wantOrder {
		v := sc.ShiftVector(logic.Zero)
		m.Step(v)
		// Output during the step reflects the pre-shift state.
		if got := m.OutputSlot(sc.OutPOs[0], 0); got != w {
			t.Errorf("shift %d: scan_out = %v, want %v", k, got, w)
		}
	}
}

// TestFunctionalModePreservesBehaviour: with scan_sel = 0, C_scan must
// behave exactly like the original circuit on the original outputs.
func TestFunctionalModePreservesBehaviour(t *testing.T) {
	forChains(t, func(t *testing.T, n int) {
		sc := insert(t, "s27", n)
		orig := sc.Orig
		mo := sim.New(orig)
		ms := sim.New(sc.Scan)
		start := []logic.Value{logic.Zero, logic.One, logic.Zero}
		mo.SetStateBroadcast(start)
		ms.SetStateBroadcast(start)
		rng := logic.NewRandFiller(2024)
		for step := 0; step < 50; step++ {
			ov := make(logic.Vector, orig.NumInputs())
			for i := range ov {
				ov[i] = rng.Next()
			}
			mo.Step(ov)
			ms.Step(sc.FunctionalVector(ov))
			for po := 0; po < orig.NumOutputs(); po++ {
				if mo.OutputSlot(po, 0) != ms.OutputSlot(po, 0) {
					t.Fatalf("step %d output %d: orig=%v scan=%v", step, po,
						mo.OutputSlot(po, 0), ms.OutputSlot(po, 0))
				}
			}
		}
	})
}

func TestFlushVectors(t *testing.T) {
	sc := insert(t, "s27", 1)
	if got := len(sc.FlushVectors(0)); got != 2 {
		t.Errorf("flush from FF0 = %d vectors, want 2", got)
	}
	if got := len(sc.FlushVectors(2)); got != 0 {
		t.Errorf("flush from last FF = %d vectors, want 0", got)
	}
	for _, v := range sc.FlushVectors(0) {
		if !sc.IsScanSel(v) {
			t.Error("flush vector without scan_sel = 1")
		}
	}
}

// TestFlushMakesEffectObservable: a value planted in any flip-flop must
// reach its chain's scan output after FlushVectors plus one observation
// vector.
func TestFlushMakesEffectObservable(t *testing.T) {
	forChains(t, func(t *testing.T, n int) {
		sc := insert(t, "s298", n)
		for f := 0; f < sc.NumStateVars(); f++ {
			m := sim.New(sc.Scan)
			st := make([]logic.Value, sc.NumStateVars())
			for i := range st {
				st[i] = logic.Zero
			}
			st[f] = logic.One
			m.SetStateBroadcast(st)
			for _, v := range sc.FlushVectors(f) {
				m.Step(v)
			}
			// One more vector to observe the shifted value.
			m.Step(sc.ShiftVector())
			if got := m.OutputSlot(sc.OutPOs[sc.ChainOf[f]], 0); got != logic.One {
				t.Errorf("FF %d (chain %d pos %d): scan_out = %v after flush, want 1",
					f, sc.ChainOf[f], sc.PosOf[f], got)
			}
		}
	})
}

func TestCountScanVectors(t *testing.T) {
	sc := insert(t, "s27", 1)
	seq := logic.Sequence{
		sc.ShiftVector(logic.One),
		sc.FunctionalVector(logic.NewVector(4)),
		sc.ShiftVector(logic.Zero),
	}
	if got := sc.CountScanVectors(seq); got != 2 {
		t.Errorf("CountScanVectors = %d, want 2", got)
	}
}

func TestScanInSequenceWidthCheck(t *testing.T) {
	forChains(t, func(t *testing.T, n int) {
		sc := insert(t, "s27", n)
		if _, err := sc.ScanInSequence([]logic.Value{logic.One}); err == nil {
			t.Error("short state accepted")
		}
	})
}

func TestInsertRequiresFFs(t *testing.T) {
	b := netlist.NewBuilder("comb")
	b.AddInput("a")
	b.AddGate(netlist.NOT, "y", "a")
	b.MarkOutput("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Insert(c); err == nil {
		t.Error("combinational circuit accepted")
	}
}

func TestInsertNameCollision(t *testing.T) {
	b := netlist.NewBuilder("clash")
	b.AddInput("scan_sel") // collides with the preferred name
	b.AddGate(netlist.NOT, "d", "scan_sel")
	b.AddFF("q", "d")
	b.MarkOutput("q")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	if sc.SelName == "scan_sel" {
		t.Error("collision not uniquified")
	}
}

// TestScanFaultsAreTargetable: the mux gates introduce new fault sites;
// the universe of C_scan must strictly contain more faults than the
// original circuit's.
func TestScanFaultsAreTargetable(t *testing.T) {
	sc := insert(t, "s27", 1)
	orig := fault.Universe(sc.Orig, false)
	scanned := fault.Universe(sc.Scan, false)
	if len(scanned) <= len(orig) {
		t.Errorf("scan universe %d <= original %d", len(scanned), len(orig))
	}
}
