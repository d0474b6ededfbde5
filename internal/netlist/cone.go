package netlist

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
)

// This file holds the static fanout structures behind event-driven
// fault simulation: per-signal fanout gate lists, per-signal transitive
// output cones (bitsets over gates), and the multi-cycle closure of a
// set of fault sites (SequentialReach).

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

// GateWords returns the length of a []uint64 bitset over the circuit's
// gates (one bit per gate).
func (c *Circuit) GateWords() int { return (len(c.Gates) + 63) / 64 }

// OutputCone returns the transitive combinational output cone of signal
// s as a bitset over gate indices: bit g is set iff gate g is reachable
// from s through gate connections only (flip-flops terminate the cone).
// Cones are computed lazily on first request and memoized; the method is
// safe for concurrent use and the returned slice must not be modified.
func (c *Circuit) OutputCone(s SignalID) []uint64 {
	c.coneMu.RLock()
	cone := c.coneCache[s]
	c.coneMu.RUnlock()
	if cone != nil {
		return cone
	}
	cone = make([]uint64, c.GateWords())
	stack := append([]int32(nil), c.fanoutGates[s]...)
	for len(stack) > 0 {
		gi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w, b := gi>>6, uint(gi&63)
		if cone[w]&(1<<b) != 0 {
			continue
		}
		cone[w] |= 1 << b
		stack = append(stack, c.fanoutGates[c.Gates[gi].Out]...)
	}
	c.coneMu.Lock()
	if prev := c.coneCache[s]; prev != nil {
		cone = prev // lost a benign race; keep the first published cone
	} else {
		c.coneCache[s] = cone
	}
	c.coneMu.Unlock()
	return cone
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
}

// SequentialReach computes into r the closure of the output cones rooted
// at the site signals plus the given seed flip-flops (sites of D-pin
// faults), iterated across the sequential boundary: whenever a reached
// gate (or site signal) feeds a flip-flop's D pin, that flip-flop's
// state can diverge and its Q cone is added, until a fixpoint. The
// closure is a superset of what any stuck-at fault on those sites can
// influence, so restricting simulation to it is sound.
func (c *Circuit) SequentialReach(sites []SignalID, seedFFs []int32, r *Reach) {
	gw := c.GateWords()
	if r.Gates == nil {
		r.Gates = make([]uint64, gw)
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

// reachExpand marks signal s as faulty-capable, unions its output cone
// into the reach, and queues any flip-flop fed by s or by a newly
// reached gate.
func (c *Circuit) reachExpand(s SignalID, r *Reach) {
	c.reachMark(s, r)
	for _, pr := range c.fanout[s] {
		if pr.FF >= 0 {
			c.reachAddFF(pr.FF, r)
		}
	}
	cone := c.OutputCone(s)
	for w, word := range cone {
		fresh := word &^ r.Gates[w]
		if fresh == 0 {
			continue
		}
		r.Gates[w] |= fresh
		for fresh != 0 {
			gi := int32(w*64 + bits.TrailingZeros64(fresh))
			fresh &= fresh - 1
			out := c.Gates[gi].Out
			c.reachMark(out, r)
			for _, pr := range c.fanout[out] {
				if pr.FF >= 0 {
					c.reachAddFF(pr.FF, r)
				}
			}
		}
	}
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
