// Package logic defines the three-valued logic domain {0, 1, X} used
// throughout the library, together with test vectors (one assignment to
// all primary inputs) and test sequences (an ordered list of vectors).
//
// X denotes an unknown or unspecified value. Test generation leaves
// don't-care positions at X; simulation treats X pessimistically.
package logic

import (
	"fmt"
	"strings"
)

// Value is a three-valued logic value.
type Value uint8

// The three logic values.
const (
	Zero Value = iota
	One
	X
)

// String renders the value as "0", "1" or "x".
func (v Value) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case X:
		return "x"
	}
	return fmt.Sprintf("Value(%d)", uint8(v))
}

// ParseValue parses '0', '1', 'x' or 'X'.
func ParseValue(ch byte) (Value, error) {
	switch ch {
	case '0':
		return Zero, nil
	case '1':
		return One, nil
	case 'x', 'X':
		return X, nil
	}
	return X, fmt.Errorf("logic: invalid value %q", string(ch))
}

// Not returns the complement; X stays X.
func (v Value) Not() Value {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	}
	return X
}

// IsBinary reports whether v is 0 or 1.
func (v Value) IsBinary() bool { return v == Zero || v == One }

// And returns the three-valued AND of a and b.
func And(a, b Value) Value {
	if a == Zero || b == Zero {
		return Zero
	}
	if a == One && b == One {
		return One
	}
	return X
}

// Or returns the three-valued OR of a and b.
func Or(a, b Value) Value {
	if a == One || b == One {
		return One
	}
	if a == Zero && b == Zero {
		return Zero
	}
	return X
}

// Xor returns the three-valued XOR of a and b.
func Xor(a, b Value) Value {
	if !a.IsBinary() || !b.IsBinary() {
		return X
	}
	if a == b {
		return Zero
	}
	return One
}

// Vector is one assignment to the primary inputs of a circuit, in input
// declaration order.
type Vector []Value

// NewVector returns a vector of n X values.
func NewVector(n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = X
	}
	return v
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// String renders the vector as a string of 0/1/x characters.
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(len(v))
	for _, x := range v {
		sb.WriteString(x.String())
	}
	return sb.String()
}

// ParseVector parses a string of 0/1/x characters into a Vector.
func ParseVector(s string) (Vector, error) {
	v := make(Vector, len(s))
	for i := 0; i < len(s); i++ {
		x, err := ParseValue(s[i])
		if err != nil {
			return nil, err
		}
		v[i] = x
	}
	return v, nil
}

// Specified reports whether every position of v is binary.
func (v Vector) Specified() bool {
	for _, x := range v {
		if !x.IsBinary() {
			return false
		}
	}
	return true
}

// Sequence is an ordered list of input vectors applied on consecutive
// clock cycles. For a scan circuit modelled per the paper, the sequence
// length equals the test application time in clock cycles, because scan
// operations are explicit vectors.
type Sequence []Vector

// Clone returns a deep copy of the sequence.
func (s Sequence) Clone() Sequence {
	t := make(Sequence, len(s))
	for i, v := range s {
		t[i] = v.Clone()
	}
	return t
}

// String renders the sequence one vector per line.
func (s Sequence) String() string {
	var sb strings.Builder
	for i, v := range s {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(v.String())
	}
	return sb.String()
}

// ParseSequence parses newline-separated vectors. Blank lines and lines
// starting with '#' are skipped.
func ParseSequence(text string) (Sequence, error) {
	var seq Sequence
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := ParseVector(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		if len(seq) > 0 && len(v) != len(seq[0]) {
			return nil, fmt.Errorf("line %d: vector width %d differs from %d", ln+1, len(v), len(seq[0]))
		}
		seq = append(seq, v)
	}
	return seq, nil
}

// CountWhere returns how many vectors in s have value want at input
// position pos. Positions out of range count as no match.
func (s Sequence) CountWhere(pos int, want Value) int {
	n := 0
	for _, v := range s {
		if pos < len(v) && v[pos] == want {
			n++
		}
	}
	return n
}

// RandFiller produces deterministic pseudo-random binary values, used to
// fill unspecified (X) positions of generated sequences. It is a small
// xorshift generator so that results are reproducible without pulling in
// math/rand state management at call sites.
type RandFiller struct{ state uint64 }

// NewRandFiller returns a filler seeded with seed (zero is remapped).
func NewRandFiller(seed uint64) *RandFiller {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RandFiller{state: seed}
}

// State returns the generator's internal state for checkpointing; a
// filler restored with the value continues the exact same stream.
func (r *RandFiller) State() uint64 { return r.state }

// Restore sets the internal state to one previously read with State.
// A zero state (which State never returns) is remapped like a zero
// seed, keeping the xorshift invariant that the state is never zero.
func (r *RandFiller) Restore(state uint64) {
	if state == 0 {
		state = 0x9e3779b97f4a7c15
	}
	r.state = state
}

// Next returns the next pseudo-random bit as a logic Value.
func (r *RandFiller) Next() Value {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	if r.state&1 == 1 {
		return One
	}
	return Zero
}

// Uint64 returns the next raw pseudo-random word.
func (r *RandFiller) Uint64() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *RandFiller) Intn(n int) int {
	if n <= 0 {
		panic("logic: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// FillX replaces every X in the vector with a pseudo-random binary
// value from r, in place, drawing once per X in position order.
func (v Vector) FillX(r *RandFiller) {
	for i, x := range v {
		if x == X {
			v[i] = r.Next()
		}
	}
}

// FillX fills every vector of the sequence in order (Vector.FillX).
func (s Sequence) FillX(r *RandFiller) {
	for _, v := range s {
		v.FillX(r)
	}
}
