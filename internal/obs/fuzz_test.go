package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzRepairTail feeds arbitrary bytes to Validate and RepairTail, and
// cuts a Recorder stream, whose events carry the same bytes as text, at
// an arbitrary offset. Neither function may panic. RepairTail must keep
// a prefix that is empty or ends in a newline, dropping at most the
// unterminated tail and one terminated line. A cut Recorder stream must
// repair to a file that Validate does not call torn and that a second
// RepairTail leaves unchanged. The seeds cut the plain stream at every
// offset.
func FuzzRepairTail(f *testing.F) {
	stream := recorderStream(f, nil)
	for cut := 0; cut <= len(stream); cut++ {
		f.Add([]byte(nil), uint(cut))
	}
	f.Add(stream, uint(0))
	f.Add([]byte("{\"type\":\"run\"}\n{\"ty"), uint(0))
	f.Add([]byte("{}\nnot json\n"), uint(0))
	f.Add([]byte("\n\n"), uint(0))
	dir := f.TempDir() // one per fuzzing process, whose inputs run one at a time
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		_, _ = Validate(bytes.NewReader(data)) // must not panic; any verdict will do
		kept := repairBytes(t, filepath.Join(dir, "raw.jsonl"), data)
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("RepairTail(%q) left %q, not a prefix", data, kept)
		}
		if len(kept) > 0 && kept[len(kept)-1] != '\n' {
			t.Fatalf("RepairTail(%q) left %q, which does not end in a newline", data, kept)
		}
		if least := minKeep(data); len(kept) < least {
			t.Fatalf("RepairTail(%q) kept %d bytes, want at least %d", data, len(kept), least)
		}

		stream := recorderStream(t, data)
		torn := stream[:cut%uint(len(stream)+1)]
		path := filepath.Join(dir, "cut.jsonl")
		repaired := repairBytes(t, path, torn)
		if _, err := Validate(bytes.NewReader(repaired)); err != nil && strings.Contains(err.Error(), "torn") {
			t.Fatalf("stream cut at %d repaired to %q: %v", len(torn), repaired, err)
		}
		if again := repairBytes(t, path, repaired); !bytes.Equal(again, repaired) {
			t.Fatalf("second RepairTail changed %q to %q", repaired, again)
		}
	})
}

// repairBytes writes data to path, runs RepairTail on it and returns
// what the file holds afterwards, checking the reported drop count.
func repairBytes(t *testing.T, path string, data []byte) []byte {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dropped, err := RepairTail(path)
	if err != nil {
		t.Fatalf("RepairTail(%q): %v", data, err)
	}
	kept, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int(dropped) != len(data)-len(kept) {
		t.Fatalf("RepairTail(%q) reported %d bytes dropped, file shrank by %d", data, dropped, len(data)-len(kept))
	}
	return kept
}

// minKeep is the shortest prefix RepairTail may keep of data: data
// without its unterminated tail and the terminated line before it.
func minKeep(data []byte) int {
	end := bytes.LastIndexByte(data, '\n') + 1
	if end == 0 {
		return 0
	}
	return bytes.LastIndexByte(data[:end-1], '\n') + 1
}

// recorderStream returns a complete Recorder stream with periodic
// snapshots whose events carry text as a field.
func recorderStream(tb testing.TB, text []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	r := NewRecorder(&buf, RecorderOptions{
		Program:       "fuzz",
		SnapshotEvery: 2,
		Clock:         func() time.Time { return time.Unix(0, 0) },
	})
	for i := 0; i < 3; i++ {
		C(r, "fuzz.events").Inc()
		r.Event("p", "e", F("i", i), F("text", string(text)))
	}
	if err := r.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
