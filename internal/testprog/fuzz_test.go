package testprog

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzProgramParse feeds arbitrary text through the tester-program
// parser. The contract under fuzzing: Parse never panics, any program it
// accepts has one vector width, and re-reading its Format output gives
// the same program. The seed corpus is a well-formed program plus every
// input of the rejection table.
func FuzzProgramParse(f *testing.F) {
	f.Add("# tester program, chain length 3\nscan 2 limited\n01x101\n011100\nscan 3 complete\n000000\n111111\nxxxxxx\nfunc 1\n010100\n")
	for _, tc := range parseErrorCases {
		f.Add(tc.text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		seq := p.Flatten()
		for i, v := range seq {
			if len(v) != len(seq[0]) {
				t.Fatalf("accepted vector %d of width %d after width %d\ninput: %q", i, len(v), len(seq[0]), text)
			}
		}
		out := p.Format()
		q, err := Parse(strings.NewReader(out))
		if err != nil {
			t.Fatalf("re-parse of formatted output failed: %v\ninput: %q\nformatted: %q", err, text, out)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the program\ninput: %q\nformatted: %q", text, out)
		}
	})
}
