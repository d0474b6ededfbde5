package netlist

import (
	"cmp"
	"slices"
	"sort"
)

// This file holds the static fanout structures behind event-driven
// fault simulation: per-signal fanout gate lists and the multi-cycle
// closure of a set of fault sites (SequentialReach).

// FanoutGates returns the distinct gates reading signal s, in ascending
// (level, gate index) order. A gate reading s on several pins appears
// once. The returned slice must not be modified.
func (c *Circuit) FanoutGates(s SignalID) []int32 { return c.fanoutGates[s] }

// buildFanoutGates derives the deduplicated, levelized fanout gate
// lists from the pin-level fanout.
func (c *Circuit) buildFanoutGates() {
	c.fanoutGates = make([][]int32, len(c.Signals))
	for s, readers := range c.fanout {
		var gates []int32
		for _, r := range readers {
			if r.Gate < 0 || slices.Contains(gates, r.Gate) {
				continue
			}
			if gates == nil {
				gates = make([]int32, 0, len(readers))
			}
			gates = append(gates, r.Gate)
		}
		slices.SortFunc(gates, func(a, b int32) int {
			if la, lb := c.Level[a], c.Level[b]; la != lb {
				return cmp.Compare(la, lb)
			}
			return cmp.Compare(a, b)
		})
		c.fanoutGates[s] = gates
	}
}

// Reach is the multi-cycle closure of a set of fault sites: everything a
// fault batch rooted at those sites can ever influence, across any
// number of clock cycles. Reach values are reusable scratch — pass the
// same one to repeated SequentialReach calls to avoid reallocation.
type Reach struct {
	// Gates is a bitset over gate indices: gates whose output can carry
	// a faulty value in some cycle.
	Gates []uint64
	// FFs lists (ascending) the flip-flops whose stored state can
	// diverge from the fault-free state.
	FFs []int32
	// POs lists (ascending) the indices within Circuit.Outputs at which
	// a fault effect can ever be observed.
	POs []int32

	sigMark []bool // scratch: signals that can carry a faulty value
	ffMark  []bool
	marked  []SignalID // signals with sigMark set, for O(touched) reset
	pending []int32    // FF worklist
	stack   []SignalID // reachExpand's signal worklist
}

// SequentialReach computes into r the closure of the combinational
// output cones (flip-flops terminate a cone) rooted at the site signals
// plus the given seed flip-flops (sites of D-pin faults), iterated
// across the sequential boundary: whenever a reached gate (or site
// signal) feeds a flip-flop's D pin, that flip-flop's state can diverge
// and its Q cone is added, until a fixpoint. The closure is a superset
// of what any stuck-at fault on those sites can influence, so
// restricting simulation to it is sound.
func (c *Circuit) SequentialReach(sites []SignalID, seedFFs []int32, r *Reach) {
	if r.Gates == nil {
		r.Gates = make([]uint64, (len(c.Gates)+63)/64)
		r.sigMark = make([]bool, len(c.Signals))
		r.ffMark = make([]bool, len(c.FFs))
	}
	for i := range r.Gates {
		r.Gates[i] = 0
	}
	for _, s := range r.marked {
		r.sigMark[s] = false
	}
	for _, fi := range r.FFs {
		r.ffMark[fi] = false
	}
	r.marked = r.marked[:0]
	r.FFs = r.FFs[:0]
	r.POs = r.POs[:0]
	r.pending = r.pending[:0]

	for _, s := range sites {
		c.reachExpand(s, r)
	}
	for _, fi := range seedFFs {
		c.reachAddFF(fi, r)
	}
	for len(r.pending) > 0 {
		fi := r.pending[len(r.pending)-1]
		r.pending = r.pending[:len(r.pending)-1]
		c.reachExpand(c.FFs[fi].Q, r)
	}
	sort.Slice(r.FFs, func(a, b int) bool { return r.FFs[a] < r.FFs[b] })
	for oi, s := range c.Outputs {
		if r.sigMark[s] {
			r.POs = append(r.POs, int32(oi))
		}
	}
}

// reachExpand marks signal s and every signal in its output cone as
// faulty-capable, adds the cone's gates to the reach, and queues any
// flip-flop those signals feed. A gate already in the reach was expanded
// when it joined, so the walk stops there.
func (c *Circuit) reachExpand(s SignalID, r *Reach) {
	stack := append(r.stack[:0], s)
	for len(stack) > 0 {
		sig := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c.reachMark(sig, r)
		for _, pr := range c.fanout[sig] {
			if pr.FF >= 0 {
				c.reachAddFF(pr.FF, r)
			}
		}
		for _, gi := range c.fanoutGates[sig] {
			if bit := uint64(1) << uint(gi&63); r.Gates[gi>>6]&bit == 0 {
				r.Gates[gi>>6] |= bit
				stack = append(stack, c.Gates[gi].Out)
			}
		}
	}
	r.stack = stack
}

func (c *Circuit) reachMark(s SignalID, r *Reach) {
	if !r.sigMark[s] {
		r.sigMark[s] = true
		r.marked = append(r.marked, s)
	}
}

func (c *Circuit) reachAddFF(fi int32, r *Reach) {
	if !r.ffMark[fi] {
		r.ffMark[fi] = true
		r.FFs = append(r.FFs, fi)
		r.pending = append(r.pending, fi)
	}
}
