package runctl

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeEnvelope feeds arbitrary bytes to the checkpoint file
// decoder: it must never panic, every rejection must be a CorruptError,
// and the sections of an accepted file must survive a re-encode and a
// second decode unchanged.
func FuzzDecodeEnvelope(f *testing.F) {
	v2, err := encodeEnvelope(map[string]json.RawMessage{"sec": json.RawMessage(`{"n":1,"s":"gen"}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add([]byte(v1Checkpoint))
	for _, tc := range corruptionCases {
		f.Add(tc.mangle(bytes.Clone(v2)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sections, err := decodeEnvelope("", data)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("decodeEnvelope(%q) = %v (%T), want a CorruptError", data, err, err)
			}
			return
		}
		again, err := encodeEnvelope(sections)
		if err != nil {
			t.Fatalf("re-encoding the sections of %q: %v", data, err)
		}
		round, err := decodeEnvelope("", again)
		if err != nil {
			t.Fatalf("re-decoding %q (from %q): %v", again, data, err)
		}
		if got, want := sectionValues(t, round), sectionValues(t, sections); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the sections\ninput: %q\nfirst:  %v\nsecond: %v", data, want, got)
		}
	})
}

// sectionValues decodes every section, so sections that differ only in
// layout (the encoder indents and escapes) compare equal.
func sectionValues(t *testing.T, sections map[string]json.RawMessage) map[string]any {
	t.Helper()
	out := make(map[string]any, len(sections))
	for name, raw := range sections {
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("section %q is not JSON: %v", name, err)
		}
		out[name] = v
	}
	return out
}
