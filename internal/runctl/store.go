package runctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/failpoint"
)

// Store persists named checkpoint sections. One store backs a whole
// pipeline run: each engine owns a section ("generate", "restore",
// "omit", "sim") and the orchestrator may add its own ("meta"), so a
// single checkpoint file describes the full run state.
type Store interface {
	// Save replaces the named section with the JSON encoding of v,
	// persisting the whole store atomically.
	Save(section string, v any) error
	// Load decodes the named section into v, reporting false when the
	// section does not exist.
	Load(section string, v any) (bool, error)
	// Clear discards all sections (and deletes any backing file).
	Clear() error
}

// FileStore's bounded retry of transient I/O errors: up to
// defaultRetries retries after the first attempt, sleeping
// defaultBackoff before the first and doubling it each time.
const (
	defaultRetries = 2
	defaultBackoff = 2 * time.Millisecond
)

// Failpoint sites on the FileStore and WriteFile I/O paths (armed only
// under internal/failpoint; production cost is one atomic nil load each).
const (
	fpStoreRead    = "runctl.store.read"
	fpStoreWrite   = "runctl.store.write"
	fpStoreSync    = "runctl.store.sync"
	fpStoreRotate  = "runctl.store.rotate"
	fpStoreRename  = "runctl.store.rename"
	fpStoreDirSync = "runctl.store.dirsync"
)

// FileStore is a Store backed by one framed, checksummed file (see
// envelope.go). Every Save rewrites the file the way WriteFile does
// (fsynced temp file, rename, directory fsync), so a crash — or a
// power loss — can never leave a torn checkpoint: the file always
// holds either the previous or the new complete state, and the rename
// is durable.
//
// Saves keep one previous generation: before publishing, the current
// file is rotated to path+".1". If the primary is later found corrupt
// (or missing — a crash can land between rotate and publish), loading
// rolls back to the last valid generation automatically; the corrupt
// primary is preserved as path+".corrupt" for post-mortem on the next
// Save. Only when every generation is unreadable does Load surface a
// *CorruptError — and even then a subsequent Save quarantines the bad
// file and starts a fresh store rather than wedging the run forever.
//
// Transient I/O errors (as opposed to corruption) are retried a few
// times with a short backoff before being reported.
type FileStore struct {
	path string

	// Logf, when set, receives warnings about generation rollback and
	// quarantine. The CLI points it at stderr; engines stay silent.
	Logf func(format string, args ...any)

	mu         sync.Mutex
	loaded     bool
	sections   map[string]json.RawMessage
	loadErr    *CorruptError // every generation corrupt; sticky until Save quarantines
	primaryBad bool          // primary file corrupt on disk; quarantine before next publish
	rolledBack bool          // sections came from the .1 generation
}

// NewFileStore returns a FileStore at path. The file is read lazily on
// first access and created on first Save.
func NewFileStore(path string) *FileStore { return &FileStore{path: path} }

// Path returns the backing file path.
func (f *FileStore) Path() string { return f.path }

// backupPath is the previous checkpoint generation.
func (f *FileStore) backupPath() string { return f.path + ".1" }

// quarantinePath preserves an unreadable checkpoint for post-mortem.
func (f *FileStore) quarantinePath() string { return f.path + ".corrupt" }

// RolledBack reports whether the store recovered its sections from the
// previous generation because the primary file was corrupt or missing.
func (f *FileStore) RolledBack() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rolledBack
}

func (f *FileStore) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

// withRetry runs fn, retrying transient errors with doubling backoff.
// Corruption is never retried: rereading the same bytes cannot help.
func (f *FileStore) withRetry(op string, fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if IsCorrupt(err) || attempt >= defaultRetries {
			break
		}
		time.Sleep(defaultBackoff << attempt)
	}
	if IsCorrupt(err) {
		return err
	}
	return fmt.Errorf("runctl: %s failed after %d attempts: %w", op, defaultRetries+1, err)
}

// readGeneration reads and decodes one generation file. A missing file
// is (nil, fs.ErrNotExist); undecodable contents are *CorruptError.
func (f *FileStore) readGeneration(path string) (map[string]json.RawMessage, error) {
	var data []byte
	err := f.withRetry("read checkpoint", func() error {
		if err := failpoint.Inject(fpStoreRead); err != nil {
			return err
		}
		var rerr error
		data, rerr = os.ReadFile(path)
		if errors.Is(rerr, fs.ErrNotExist) {
			return nil // not transient; checked below
		}
		return rerr
	})
	if err != nil {
		return nil, err
	}
	if data == nil {
		if _, serr := os.Stat(path); errors.Is(serr, fs.ErrNotExist) {
			return nil, fs.ErrNotExist
		}
		data = []byte{}
	}
	return decodeEnvelope(path, data)
}

// load populates sections from the primary generation, falling back to
// the previous one when the primary is corrupt or missing. With every
// generation unreadable it records a sticky *CorruptError: Loads fail
// with it (typed, no silent acceptance) until a Save quarantines the
// bad file and starts fresh.
func (f *FileStore) load() error {
	if f.loaded {
		return nil
	}
	f.sections = make(map[string]json.RawMessage)
	sections, err := f.readGeneration(f.path)
	switch {
	case err == nil:
		f.sections = sections
		f.loaded = true
		return nil
	case errors.Is(err, fs.ErrNotExist):
		// No primary. A crash between rotate and publish leaves only
		// the previous generation — recover it.
		prev, perr := f.readGeneration(f.backupPath())
		if perr == nil && prev != nil {
			f.sections = prev
			f.rolledBack = true
			f.loaded = true
			f.logf("checkpoint %s missing; recovered previous generation %s", f.path, f.backupPath())
			return nil
		}
		f.loaded = true // genuinely fresh store
		return nil
	case IsCorrupt(err):
		f.primaryBad = true
		prev, perr := f.readGeneration(f.backupPath())
		if perr == nil && prev != nil {
			f.sections = prev
			f.rolledBack = true
			f.loaded = true
			f.logf("checkpoint corrupt (%v); rolled back to previous generation %s", err, f.backupPath())
			return nil
		}
		// Both generations unreadable: report the primary's corruption.
		ce := err.(*CorruptError)
		if perr != nil && !errors.Is(perr, fs.ErrNotExist) {
			ce = &CorruptError{Path: ce.Path, Kind: ce.Kind,
				Detail: fmt.Sprintf("%s; previous generation also unreadable: %v", ce.Detail, perr)}
		}
		f.loadErr = ce
		f.loaded = true
		return nil
	default:
		f.sections = nil
		return err // transient read failure: not sticky, retried next call
	}
}

// Save implements Store.
func (f *FileStore) Save(section string, v any) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.load(); err != nil {
		return err
	}
	if f.loadErr != nil {
		// Every generation was corrupt. Quarantine the primary and
		// start a fresh store so the run can make progress again.
		if err := os.Rename(f.path, f.quarantinePath()); err == nil {
			f.logf("quarantined corrupt checkpoint as %s; starting a fresh store", f.quarantinePath())
		}
		f.sections = make(map[string]json.RawMessage)
		f.loadErr = nil
		f.primaryBad = false
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runctl: encode section %q: %w", section, err)
	}
	f.sections[section] = raw
	data, err := encodeEnvelope(f.sections)
	if err != nil {
		return err
	}
	return f.withRetry("write checkpoint", func() error { return f.publish(data) })
}

// publish writes data the way WriteFile does, rotating the current
// generation aside once the new bytes are fsynced in their temp file,
// just before they are renamed into place.
func (f *FileStore) publish(data []byte) error {
	return writeFile(f.path, data, func() error {
		if f.primaryBad {
			// Never rotate a corrupt primary over the good previous
			// generation — park it for post-mortem instead.
			if err := os.Rename(f.path, f.quarantinePath()); err == nil {
				f.logf("quarantined corrupt checkpoint as %s", f.quarantinePath())
			}
			f.primaryBad = false
		} else if _, err := os.Stat(f.path); err == nil {
			if err := failpoint.Inject(fpStoreRotate); err != nil {
				return fmt.Errorf("runctl: rotate checkpoint: %w", err)
			}
			if err := os.Rename(f.path, f.backupPath()); err != nil {
				return fmt.Errorf("runctl: rotate checkpoint: %w", err)
			}
		}
		return nil
	})
}

// WriteFile replaces the file at path with data crash-safely: data goes
// to a temp file in path's directory, which is fsynced and renamed over
// path, and then the directory is fsynced, so a crash or a power loss
// leaves path whole, old or new. A failed call leaves no temp file. It
// does not retry, and it passes the runctl.store.write, sync, rename
// and dirsync failpoint sites, as FileStore.Save does.
func WriteFile(path string, data []byte) error { return writeFile(path, data, nil) }

// writeFile is WriteFile with a hook that runs once the temp file is
// fsynced, just before it is renamed into place.
func writeFile(path string, data []byte, beforeRename func() error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("runctl: write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := failpoint.InjectWrite(fpStoreWrite, tmp, data); err != nil {
		tmp.Close()
		return fmt.Errorf("runctl: write %s: %w", path, err)
	}
	if err := failpoint.Inject(fpStoreSync); err != nil {
		tmp.Close()
		return fmt.Errorf("runctl: sync %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("runctl: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("runctl: close %s: %w", path, err)
	}
	if beforeRename != nil {
		if err := beforeRename(); err != nil {
			return err
		}
	}
	if err := failpoint.Inject(fpStoreRename); err != nil {
		return fmt.Errorf("runctl: rename %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("runctl: rename %s: %w", path, err)
	}
	if err := failpoint.Inject(fpStoreDirSync); err != nil {
		return fmt.Errorf("runctl: sync directory of %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("runctl: sync directory of %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss, not only process death.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load implements Store.
func (f *FileStore) Load(section string, v any) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.load(); err != nil {
		return false, err
	}
	if f.loadErr != nil {
		return false, f.loadErr
	}
	raw, ok := f.sections[section]
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, &CorruptError{Path: f.path, Kind: CorruptSection,
			Detail: fmt.Sprintf("section %q: %v", section, err)}
	}
	return true, nil
}

// Clear implements Store.
func (f *FileStore) Clear() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sections = make(map[string]json.RawMessage)
	f.loaded = true
	f.loadErr = nil
	f.primaryBad = false
	f.rolledBack = false
	for _, p := range []string{f.path, f.backupPath(), f.quarantinePath()} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("runctl: clear checkpoint: %w", err)
		}
	}
	return nil
}

// MemStore is an in-memory Store for tests and embedded use.
type MemStore struct {
	mu       sync.Mutex
	sections map[string]json.RawMessage
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore {
	return &MemStore{sections: make(map[string]json.RawMessage)}
}

// Save implements Store.
func (m *MemStore) Save(section string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runctl: encode section %q: %w", section, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sections[section] = raw
	return nil
}

// Load implements Store.
func (m *MemStore) Load(section string, v any) (bool, error) {
	m.mu.Lock()
	raw, ok := m.sections[section]
	m.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, &CorruptError{Kind: CorruptSection,
			Detail: fmt.Sprintf("section %q: %v", section, err)}
	}
	return true, nil
}

// Clear implements Store.
func (m *MemStore) Clear() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sections = make(map[string]json.RawMessage)
	return nil
}
