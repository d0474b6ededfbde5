// Package scan inserts mux-based scan chains into a synchronous
// sequential circuit, producing the circuit the paper calls C_scan: the
// original circuit plus a shared scan_sel input, one scan_inp input per
// chain and one scan_out output per chain.
//
// The multiplexers in front of the flip-flops are built from ordinary
// gates (two ANDs and an OR per flip-flop, sharing one inverter for the
// select), so the faults introduced by the scan logic are part of the
// fault universe — the paper explicitly targets them.
//
// Chain order follows flip-flop declaration order, matching the paper's
// "order of the flip-flops in the scan chains is identical to their
// order in the circuit description": scan_inp feeds flip-flop 0, whose
// output feeds flip-flop 1, and so on; scan_out observes the output of
// the last flip-flop. With several chains the flip-flops are split into
// near-equal contiguous groups, one per chain (the paper notes its
// procedures "can be easily applied to circuits with multiple scan
// chains").
package scan

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Circuit bundles the scan-inserted circuit with the bookkeeping the
// test generation and translation procedures need.
type Circuit struct {
	// Scan is C_scan, the circuit with the chains inserted.
	Scan *netlist.Circuit
	// Orig is the circuit scan was inserted into.
	Orig *netlist.Circuit
	// SelPI is the position of the shared scan_sel in Scan.Inputs; the
	// chain inputs follow it as the last inputs.
	SelPI int
	// InpPIs[k] is the input position of chain k's scan_inp.
	InpPIs []int
	// OutPOs[k] is the output position of chain k's scan_out; they are
	// the last outputs.
	OutPOs []int
	// ChainOf[f] and PosOf[f] give flip-flop f's chain and its
	// position within it (position 0 is nearest scan_inp).
	ChainOf, PosOf []int
	// Lens[k] is the length of chain k; longer chains come first.
	Lens []int
	// SelName and InpNames are the actual signal names chosen for the
	// scan controls (uniquified against the original name space).
	SelName  string
	InpNames []string
}

// Insert builds C_scan with the paper's single scan chain. The circuit
// must have at least one flip-flop.
func Insert(c *netlist.Circuit) (*Circuit, error) { return InsertChains(c, 1) }

// InsertChains builds C_scan with n scan chains sharing one scan_sel. n
// is clamped to [1, number of flip-flops]. One chain keeps the paper's
// names (input scan_inp, circuit <name>_scan); n > 1 chains name their
// inputs scan_inp0 … scan_inp<n-1> and the circuit <name>_scan<n>.
func InsertChains(c *netlist.Circuit, n int) (*Circuit, error) {
	nFF := c.NumFFs()
	if nFF == 0 {
		return nil, fmt.Errorf("scan: circuit %q has no flip-flops", c.Name)
	}
	n = max(1, min(n, nFF))
	used := make(map[string]bool, len(c.Signals))
	for _, s := range c.Signals {
		used[s.Name] = true
	}
	unique := func(base string) string {
		name := base
		for i := 2; used[name]; i++ {
			name = fmt.Sprintf("%s_%d", base, i)
		}
		used[name] = true
		return name
	}
	name := c.Name + "_scan"
	selName := unique("scan_sel")
	inpNames := make([]string, n)
	if n == 1 {
		inpNames[0] = unique("scan_inp")
	} else {
		name = fmt.Sprintf("%s%d", name, n)
		for k := range inpNames {
			inpNames[k] = unique(fmt.Sprintf("scan_inp%d", k))
		}
	}
	nselName := unique("scan_nsel")

	b := netlist.NewBuilder(name)
	for _, in := range c.Inputs {
		b.AddInput(c.SignalName(in))
	}
	b.AddInput(selName)
	for _, inp := range inpNames {
		b.AddInput(inp)
	}

	// Shared inverted select.
	b.AddGate(netlist.NOT, nselName, selName)

	// Original combinational gates, unchanged.
	for _, gi := range c.Order {
		g := c.Gates[gi]
		in := make([]string, len(g.In))
		for i, s := range g.In {
			in[i] = c.SignalName(s)
		}
		b.AddGate(g.Type, c.SignalName(g.Out), in...)
	}

	// Flip-flops with scan muxes, chained in declaration order: chain k
	// takes the next Lens[k] flip-flops.
	sc := &Circuit{
		Orig:     c,
		SelPI:    c.NumInputs(),
		ChainOf:  make([]int, nFF),
		PosOf:    make([]int, nFF),
		Lens:     make([]int, n),
		SelName:  selName,
		InpNames: inpNames,
	}
	lastQ := make([]string, n)
	fi := 0
	for k := range sc.Lens {
		sc.Lens[k] = nFF / n
		if k < nFF%n {
			sc.Lens[k]++
		}
		sc.InpPIs = append(sc.InpPIs, c.NumInputs()+1+k)
		sc.OutPOs = append(sc.OutPOs, c.NumOutputs()+k)
		prev := inpNames[k]
		for p := 0; p < sc.Lens[k]; p++ {
			ff := c.FFs[fi]
			q := c.SignalName(ff.Q)
			d := c.SignalName(ff.D)
			funcPath := unique(fmt.Sprintf("scan_mf_%d", fi))
			shiftPath := unique(fmt.Sprintf("scan_ms_%d", fi))
			muxOut := unique(fmt.Sprintf("scan_md_%d", fi))
			b.AddGate(netlist.AND, funcPath, nselName, d)
			b.AddGate(netlist.AND, shiftPath, selName, prev)
			b.AddGate(netlist.OR, muxOut, funcPath, shiftPath)
			b.AddFF(q, muxOut)
			sc.ChainOf[fi], sc.PosOf[fi] = k, p
			prev = q
			fi++
		}
		lastQ[k] = prev
	}

	for _, out := range c.Outputs {
		b.MarkOutput(c.SignalName(out))
	}
	for _, q := range lastQ {
		b.MarkOutput(q) // scan_out observes the chain's last flip-flop
	}

	var err error
	if sc.Scan, err = b.Build(); err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	return sc, nil
}

// ScanCircuit returns C_scan.
func (sc *Circuit) ScanCircuit() *netlist.Circuit { return sc.Scan }

// NumStateVars returns the total number of scan state variables.
func (sc *Circuit) NumStateVars() int { return sc.Orig.NumFFs() }

// NumChains returns the number of scan chains.
func (sc *Circuit) NumChains() int { return len(sc.Lens) }

// MaxLen returns the longest chain length — the cost of a complete
// scan operation. For one chain it equals NumStateVars.
func (sc *Circuit) MaxLen() int { return sc.Lens[0] }

// ShiftVector returns one input vector for C_scan shifting every chain
// once: scan_sel = 1, chain k's scan_inp = inps[k] (X where inps is
// short), all original primary inputs at X (callers typically fill them
// randomly afterwards).
func (sc *Circuit) ShiftVector(inps ...logic.Value) logic.Vector {
	v := logic.NewVector(sc.Scan.NumInputs())
	v[sc.SelPI] = logic.One
	for k, pi := range sc.InpPIs {
		if k < len(inps) {
			v[pi] = inps[k]
		}
	}
	return v
}

// FunctionalVector returns one input vector for C_scan applying the
// original-circuit vector orig with scan_sel = 0 and every scan_inp at
// X.
func (sc *Circuit) FunctionalVector(orig logic.Vector) logic.Vector {
	v := logic.NewVector(sc.Scan.NumInputs())
	copy(v, orig)
	v[sc.SelPI] = logic.Zero
	return v
}

// ScanInSequence returns the MaxLen shift vectors that load state (one
// value per flip-flop, in flip-flop order) into every chain in
// parallel. Chain position p is fed at shift MaxLen-1-p, so for one
// chain the state is fed last element first (the paper's "we reversed
// the state s"); shorter chains receive X before their values.
func (sc *Circuit) ScanInSequence(state []logic.Value) (logic.Sequence, error) {
	if len(state) != sc.NumStateVars() {
		return nil, fmt.Errorf("scan: state width %d, %d state variables", len(state), sc.NumStateVars())
	}
	seq := sc.ScanOutSequence() // MaxLen shifts with every scan_inp at X
	for f, v := range state {
		seq[len(seq)-1-sc.PosOf[f]][sc.InpPIs[sc.ChainOf[f]]] = v
	}
	return seq, nil
}

// ScanOutSequence returns MaxLen shift vectors, with every scan_inp at
// X, emptying every chain for observation (a complete scan-out).
func (sc *Circuit) ScanOutSequence() logic.Sequence {
	seq := make(logic.Sequence, sc.MaxLen())
	for t := range seq {
		seq[t] = sc.ShiftVector()
	}
	return seq
}

// FlushLength returns how many shifts move an effect latched in
// flip-flop ff to its chain's scan output. Following the paper, an
// effect in flip-flop i (1-based) of an NSV-long chain needs NSV - i
// shifts; one further vector of any kind must follow for the value to
// be observed on scan_out.
func (sc *Circuit) FlushLength(ff int) int {
	return sc.Lens[sc.ChainOf[ff]] - 1 - sc.PosOf[ff]
}

// FlushVectors returns FlushLength(ff) shift vectors with every scan_inp
// and original input at X.
func (sc *Circuit) FlushVectors(ff int) logic.Sequence {
	seq := make(logic.Sequence, sc.FlushLength(ff))
	for t := range seq {
		seq[t] = sc.ShiftVector()
	}
	return seq
}

// IsScanSel reports whether vector v performs a scan shift (scan_sel is
// 1).
func (sc *Circuit) IsScanSel(v logic.Vector) bool {
	return sc.SelPI < len(v) && v[sc.SelPI] == logic.One
}

// CountScanVectors counts the vectors of seq with scan_sel = 1 — the
// "scan" columns of the paper's Tables 6 and 7.
func (sc *Circuit) CountScanVectors(seq logic.Sequence) int {
	n := 0
	for _, v := range seq {
		if sc.IsScanSel(v) {
			n++
		}
	}
	return n
}
