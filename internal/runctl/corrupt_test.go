package runctl

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/failpoint"
)

type ckPayload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func newStoreWithSaves(t *testing.T, saves int) *FileStore {
	t.Helper()
	fs := NewFileStore(filepath.Join(t.TempDir(), "run.ckpt"))
	for i := 1; i <= saves; i++ {
		if err := fs.Save("sec", ckPayload{N: i, S: "gen"}); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	return fs
}

// reopen forgets in-memory state so the next access re-reads disk.
func reopen(fs *FileStore) *FileStore { return NewFileStore(fs.path) }

func TestEnvelopeRoundTrip(t *testing.T) {
	fs := newStoreWithSaves(t, 1)
	var got ckPayload
	ok, err := reopen(fs).Load("sec", &got)
	if err != nil || !ok || got.N != 1 {
		t.Fatalf("Load = (%v, %v), got %+v", ok, err, got)
	}
	data, err := os.ReadFile(fs.path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), FileFormat+" len=") {
		t.Fatalf("file does not start with v2 header: %q", data[:40])
	}
}

// v1Checkpoint is a checkpoint in the bare-JSON format of earlier
// releases, which the store no longer reads.
const v1Checkpoint = `{"format":"scanatpg-checkpoint/v1","sections":{"sec":{"n":7,"s":"old"}}}`

func corruptKindOf(t *testing.T, err error) CorruptKind {
	t.Helper()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CorruptError", err, err)
	}
	return ce.Kind
}

// corruptionCases are TestCorruptionClassesAreTyped's inputs, also
// FuzzDecodeEnvelope's seed corpus: each mangles a valid v2 checkpoint
// file into one that must fail to decode with the given kind.
var corruptionCases = []struct {
	name   string
	mangle func(data []byte) []byte
	kind   CorruptKind
}{
	{"truncated", func(d []byte) []byte { return d[:len(d)/2] }, CorruptFraming},
	{"bit flip in ckPayload", func(d []byte) []byte {
		d[len(d)-3] ^= 0x40
		return d
	}, CorruptChecksum},
	{"wrong version", func(d []byte) []byte {
		return append([]byte("scanatpg-checkpoint/v9 len=2 crc=00000000\n{}"), nil...)
	}, CorruptVersion},
	{"foreign contents", func(d []byte) []byte { return []byte("PK\x03\x04 not ours") }, CorruptHeader},
	{"trailing garbage", func(d []byte) []byte { return append(d, []byte("extra")...) }, CorruptFraming},
	{"header torn mid-line", func(d []byte) []byte { return d[:10] }, CorruptFraming},
	{"empty file", func(d []byte) []byte { return nil }, CorruptHeader},
	{"v1 syntax error", func(d []byte) []byte { return []byte("{not json") }, CorruptHeader},
	{"v1 foreign format", func(d []byte) []byte {
		return []byte(`{"format":"other-tool/v3","sections":{}}`)
	}, CorruptHeader},
	{"v1 checkpoint", func(d []byte) []byte { return []byte(v1Checkpoint) }, CorruptHeader},
}

func TestCorruptionClassesAreTyped(t *testing.T) {
	for _, tc := range corruptionCases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newStoreWithSaves(t, 1) // single generation: no rollback possible
			data, err := os.ReadFile(fs.path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(fs.path, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			var got ckPayload
			ok, err := reopen(fs).Load("sec", &got)
			if ok || err == nil {
				t.Fatalf("Load on corrupt file = (%v, %v), want typed error", ok, err)
			}
			if kind := corruptKindOf(t, err); kind != tc.kind {
				t.Fatalf("kind = %v, want %v (err: %v)", kind, tc.kind, err)
			}
		})
	}
}

func TestCorruptPrimaryRollsBackToPreviousGeneration(t *testing.T) {
	fs := newStoreWithSaves(t, 3) // primary has n=3, .1 has n=2
	data, err := os.ReadFile(fs.path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(fs.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var warns []string
	re := reopen(fs)
	re.Logf = func(f string, a ...any) { warns = append(warns, f) }
	var got ckPayload
	ok, err := re.Load("sec", &got)
	if err != nil || !ok {
		t.Fatalf("Load after corruption = (%v, %v), want rollback", ok, err)
	}
	if got.N != 2 {
		t.Fatalf("rolled-back section n = %d, want 2 (previous generation)", got.N)
	}
	if !re.RolledBack() {
		t.Fatal("RolledBack() = false after generation rollback")
	}
	if len(warns) == 0 {
		t.Fatal("rollback produced no Logf warning")
	}
	// The next Save must quarantine the corrupt primary, not rotate it
	// over the good generation.
	if err := re.Save("sec", ckPayload{N: 4}); err != nil {
		t.Fatalf("Save after rollback: %v", err)
	}
	if _, err := os.Stat(re.quarantinePath()); err != nil {
		t.Fatalf("corrupt primary not quarantined: %v", err)
	}
	var after ckPayload
	if ok, err := reopen(fs).Load("sec", &after); !ok || err != nil || after.N != 4 {
		t.Fatalf("post-quarantine Load = (%v, %v, %+v)", ok, err, after)
	}
}

func TestMissingPrimaryRecoversBackup(t *testing.T) {
	// Simulates a crash between rotate and publish: only .1 exists.
	fs := newStoreWithSaves(t, 2)
	if err := os.Remove(fs.path); err != nil {
		t.Fatal(err)
	}
	var got ckPayload
	re := reopen(fs)
	ok, err := re.Load("sec", &got)
	if err != nil || !ok || got.N != 1 {
		t.Fatalf("Load = (%v, %v, %+v), want recovery of generation .1 (n=1)", ok, err, got)
	}
	if !re.RolledBack() {
		t.Fatal("RolledBack() = false after missing-primary recovery")
	}
}

func TestBothGenerationsCorruptIsTypedThenSaveRecovers(t *testing.T) {
	fs := newStoreWithSaves(t, 2)
	for _, p := range []string{fs.path, fs.backupPath()} {
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re := reopen(fs)
	var got ckPayload
	ok, err := re.Load("sec", &got)
	if ok || !IsCorrupt(err) {
		t.Fatalf("Load with all generations corrupt = (%v, %v), want CorruptError", ok, err)
	}
	if !strings.Contains(err.Error(), "previous generation also unreadable") {
		t.Fatalf("error %q does not mention the failed fallback", err)
	}
	// The store must not wedge: Save quarantines and starts fresh.
	if err := re.Save("sec", ckPayload{N: 9}); err != nil {
		t.Fatalf("Save after double corruption: %v", err)
	}
	var after ckPayload
	if ok, err := reopen(fs).Load("sec", &after); !ok || err != nil || after.N != 9 {
		t.Fatalf("recovered Load = (%v, %v, %+v)", ok, err, after)
	}
	if _, err := os.Stat(re.quarantinePath()); err != nil {
		t.Fatalf("corrupt file not preserved for post-mortem: %v", err)
	}
}

func TestSaveRetriesTransientInjectedErrors(t *testing.T) {
	defer failpoint.Disable()
	fs := newStoreWithSaves(t, 0)
	if err := failpoint.Enable("runctl.store.sync=error@1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("sec", ckPayload{N: 1}); err != nil {
		t.Fatalf("Save with one transient sync error: %v (want retry success)", err)
	}
	if failpoint.Fired("runctl.store.sync") != 1 {
		t.Fatal("injected sync error never fired — test is vacuous")
	}
	var got ckPayload
	if ok, err := reopen(fs).Load("sec", &got); !ok || err != nil || got.N != 1 {
		t.Fatalf("Load = (%v, %v, %+v)", ok, err, got)
	}
}

func TestSaveReportsPersistentErrors(t *testing.T) {
	defer failpoint.Disable()
	fs := newStoreWithSaves(t, 0)
	if err := failpoint.Enable("runctl.store.write=error"); err != nil {
		t.Fatal(err)
	}
	err := fs.Save("sec", ckPayload{N: 1})
	if err == nil || !failpoint.IsInjected(err) {
		t.Fatalf("Save = %v, want persistent injected error", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error %q does not report the retry count", err)
	}
}

func TestTornTempWriteRetriesCleanly(t *testing.T) {
	defer failpoint.Disable()
	fs := newStoreWithSaves(t, 1)
	// Tear the temp-file write once; the retry writes a fresh temp file.
	if err := failpoint.Enable("runctl.store.write=partial:0.3@1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("sec", ckPayload{N: 2}); err != nil {
		t.Fatalf("Save with torn temp write: %v", err)
	}
	var got ckPayload
	if ok, err := reopen(fs).Load("sec", &got); !ok || err != nil || got.N != 2 {
		t.Fatalf("Load = (%v, %v, %+v)", ok, err, got)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(fs.path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stray temp file %s after retried save", e.Name())
		}
	}
}

func TestClearRemovesAllGenerations(t *testing.T) {
	fs := newStoreWithSaves(t, 3)
	if err := os.WriteFile(fs.quarantinePath(), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Clear(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{fs.path, fs.backupPath(), fs.quarantinePath()} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived Clear", p)
		}
	}
}

// TestWriteFileFailpoints fails WriteFile once at each of its failpoint
// sites and tears its temp-file write: every failure is the injected
// one, leaves no temp file, and leaves the target's old bytes in place,
// except a failed directory fsync, which comes after the rename.
func TestWriteFileFailpoints(t *testing.T) {
	defer failpoint.Disable()
	for _, tc := range []struct {
		spec     string
		replaced bool
	}{
		{"runctl.store.write=error@1", false},
		{"runctl.store.write=partial:0.3@1", false},
		{"runctl.store.sync=error@1", false},
		{"runctl.store.rename=error@1", false},
		{"runctl.store.dirsync=error@1", true},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "job.json")
			if err := os.WriteFile(path, []byte("old bytes"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := failpoint.Enable(tc.spec); err != nil {
				t.Fatal(err)
			}
			err := WriteFile(path, []byte("the new bytes"))
			failpoint.Disable()
			if !failpoint.IsInjected(err) {
				t.Fatalf("WriteFile = %v, want the injected error", err)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
			want := "old bytes"
			if tc.replaced {
				want = "the new bytes"
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Fatalf("target holds %q (%v), want %q", got, err, want)
			}
		})
	}
}
