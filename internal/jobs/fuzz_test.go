package jobs

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeSpec feeds arbitrary bodies to the HTTP submission decoder:
// it must never panic, every rejection must be a *SpecError, and an
// accepted spec must keep seq_len within its cap and survive a
// json.Marshal round trip unchanged.
func FuzzDecodeSpec(f *testing.F) {
	// README's curl walkthrough submits this spec.
	f.Add(`{
  "flow": "simulate", "circuits": ["s298", "s5378"],
  "seed": 7, "seq_len": 128, "partitions": 4, "tenant": "alice"
}`)
	for _, tc := range specValidateCases {
		sp := validSpec()
		tc.mutate(&sp)
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	// A spec that still sends the retired "engine" field is rejected.
	f.Add(`{"flow":"compact","circuits":["s27"],"engine":"scratch"}`)
	f.Fuzz(func(t *testing.T, body string) {
		sp, err := DecodeSpec(strings.NewReader(body))
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("DecodeSpec(%q) = %v (%T), want a *SpecError", body, err, err)
			}
			return
		}
		if sp.SeqLen > maxSeqLen {
			t.Fatalf("DecodeSpec(%q) accepted seq_len %d, cap %d", body, sp.SeqLen, maxSeqLen)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("re-encoding the spec of %q: %v", body, err)
		}
		again, err := DecodeSpec(strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("re-decoding %s (from %q): %v", b, body, err)
		}
		if !reflect.DeepEqual(sp, again) {
			t.Fatalf("round trip changed the spec\ninput: %q\nfirst:  %+v\nsecond: %+v", body, sp, again)
		}
	})
}
