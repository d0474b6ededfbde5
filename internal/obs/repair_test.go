package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/failpoint"
)

// record writes a small complete stream and returns its bytes.
func completeStream(t *testing.T, events int) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := NewRecorder(&buf, RecorderOptions{Program: "repair-test", SnapshotEvery: -1})
	for i := 0; i < events; i++ {
		r.Event("p", "e", F("i", i))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRepairTailDropsUnterminatedLine(t *testing.T) {
	full := completeStream(t, 3)
	torn := full[:len(full)-7] // shear the final snapshot line mid-record
	path := filepath.Join(t.TempDir(), "m.jsonl")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(bytes.NewReader(torn)); err == nil || !strings.Contains(err.Error(), "torn final line") {
		t.Fatalf("Validate on torn stream = %v, want torn-final-line report", err)
	}
	dropped, err := RepairTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("RepairTail dropped nothing from a torn file")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[len(got)-1] != '\n' {
		t.Fatalf("repaired file does not end in newline: %q", got)
	}
	// Every surviving line must be a full record; the stream as a whole
	// is still "incomplete" (no final snapshot) until a resume leg ends.
	if _, err := Validate(bytes.NewReader(got)); err == nil || strings.Contains(err.Error(), "torn") {
		t.Fatalf("repaired stream error = %v, want only the missing-final-snapshot error", err)
	}
}

func TestRepairTailKeepsCompleteFile(t *testing.T) {
	full := completeStream(t, 2)
	path := filepath.Join(t.TempDir(), "m.jsonl")
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	dropped, err := RepairTail(path)
	if err != nil || dropped != 0 {
		t.Fatalf("RepairTail on complete file = (%d, %v), want (0, nil)", dropped, err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, full) {
		t.Fatal("RepairTail modified a complete file")
	}
	// Missing and empty files are no-ops too.
	if dropped, err := RepairTail(filepath.Join(t.TempDir(), "absent.jsonl")); dropped != 0 || err != nil {
		t.Fatalf("RepairTail on missing file = (%d, %v)", dropped, err)
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	os.WriteFile(empty, nil, 0o644)
	if dropped, err := RepairTail(empty); dropped != 0 || err != nil {
		t.Fatalf("RepairTail on empty file = (%d, %v)", dropped, err)
	}
}

func TestRepairTailWholeFileIsOneTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	if err := os.WriteFile(path, []byte(`{"type":"run","se`), 0o644); err != nil {
		t.Fatal(err)
	}
	dropped, err := RepairTail(path)
	if err != nil || dropped != 17 {
		t.Fatalf("RepairTail = (%d, %v), want (17, nil)", dropped, err)
	}
	got, _ := os.ReadFile(path)
	if len(got) != 0 {
		t.Fatalf("file not emptied: %q", got)
	}
}

// A torn append (injected partial write) followed by a resume-leg
// repair yields a stream Validate accepts end to end — the exact
// crash/resume shape of the soak harness.
func TestResumeAfterTornAppendValidates(t *testing.T) {
	defer failpoint.Disable()
	path := filepath.Join(t.TempDir(), "m.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("obs.recorder.append=partial:0.6@3"); err != nil {
		t.Fatal(err)
	}
	r1 := NewRecorder(f, RecorderOptions{Program: "leg1", SnapshotEvery: -1})
	r1.Event("p", "a") // line 2
	r1.Event("p", "b") // line 3: torn mid-write, recorder latches the error
	r1.Event("p", "c") // skipped: error already latched
	r1.Close()         // flushes the partial line
	f.Close()
	if r1.Err() == nil || !failpoint.IsInjected(r1.Err()) {
		t.Fatalf("recorder error = %v, want injected", r1.Err())
	}
	failpoint.Disable()

	cli := &CLI{Metrics: path, Program: "leg2"}
	rt, err := cli.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	rt.Observer().(*Recorder).Event("p", "resumed_work")
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Validate(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("stream after torn append + repaired resume invalid: %v\n%s", err, data)
	}
	if st.Runs != 2 {
		t.Fatalf("runs = %d, want 2 legs", st.Runs)
	}
	if !strings.Contains(string(data), `"tail_repaired"`) {
		t.Fatal("resume leg did not record the tail_repaired event")
	}
}
