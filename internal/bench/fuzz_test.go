package bench

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text through the .bench parser. The
// contract under fuzzing: Parse never panics, returns either a circuit
// or a positioned error, and any circuit it does accept survives a
// Format -> Parse round trip with identical sizes. The seed corpus in
// testdata/fuzz/FuzzParse covers the known malformed classes (truncated
// lines, duplicate definitions, self-referential gates, combinational
// cycles, undriven nets) alongside well-formed circuits.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// Well-formed, with comments and loose spacing.
		"# tiny\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(d)\nn1 = AND(a, b)\nd  =  OR ( n1 , q )\ny = NOT(q)\n",
		// Legal DFF self-reference (hold register).
		"INPUT(a)\nOUTPUT(q)\nq = DFF(q)\n",
		// Truncated lines.
		"INPUT(a\n",
		"INPUT\n",
		"y = AND(a, b\n",
		"y =\n",
		"= AND(a, b)\n",
		// Duplicate definitions.
		"INPUT(a)\nINPUT(a)\n",
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n",
		// Self-referential combinational gate.
		"INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n",
		// Combinational cycle through two gates.
		"INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = OR(a, y)\n",
		// Undriven net.
		"INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n",
		// Assorted garbage.
		"garbage line\n",
		"g = FROB(a)\n",
		"q = DFF(a, b)\n",
		"\x00\xff(=\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseString(text, "fuzz")
		if err != nil {
			if c != nil {
				t.Fatalf("Parse returned both a circuit and an error: %v", err)
			}
			return
		}
		// Accepted input must round-trip through the writer.
		out := Format(c)
		c2, err := ParseString(out, "fuzz")
		if err != nil {
			t.Fatalf("re-parse of formatted output failed: %v\ninput: %q\nformatted: %q", err, text, out)
		}
		if c2.NumInputs() != c.NumInputs() || c2.NumOutputs() != c.NumOutputs() ||
			c2.NumFFs() != c.NumFFs() || c2.NumGates() != c.NumGates() {
			t.Fatalf("round trip changed sizes: %+v -> %+v\ninput: %q", c.Stats(), c2.Stats(), text)
		}
	})
}

// TestParsePositionedErrors pins the diagnostics for each malformed
// class the fuzz corpus covers: line-numbered for syntax errors and
// duplicate definitions, by the signals involved for combinational
// cycles and undriven nets, which the netlist builder finds after
// parsing.
func TestParsePositionedErrors(t *testing.T) {
	cases := []struct {
		name, text, wantSub string
	}{
		{"truncated-paren", "INPUT(a)\nINPUT(b\n", "line 2"},
		{"truncated-expr", "INPUT(a)\ny = AND(a,\n", "line 2"},
		{"missing-output-name", "INPUT(a)\n= AND(a, a)\n", "line 2"},
		{"dup-input", "INPUT(a)\nINPUT(a)\n", `"a" already defined at line 1`},
		{"dup-gate", "INPUT(a)\ny = NOT(a)\ny = BUF(a)\n", `"y" already defined at line 2`},
		{"dup-mixed", "INPUT(a)\nq = DFF(a)\nINPUT(q)\n", `"q" already defined at line 2`},
		{"multiply-driven-net", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(b)\n", `"y" already defined at line 4`},
		{"self-loop", "INPUT(a)\ny = AND(a, y)\n", "reads its own output"},
		{"combinational-loop", "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = OR(a, y)\n", "combinational cycle: z -> y -> z"},
		{"undriven-net", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", "undriven"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.text, "bad")
			if err == nil {
				t.Fatalf("accepted %q", tc.text)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseDFFSelfReference checks the one legal self-reference: a
// flip-flop holding its own value.
func TestParseDFFSelfReference(t *testing.T) {
	c, err := ParseString("INPUT(a)\nOUTPUT(q)\nq = DFF(q)\n", "hold")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumFFs() != 1 {
		t.Fatalf("want 1 FF, got %d", c.NumFFs())
	}
}
