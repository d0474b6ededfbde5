// Package failpoint is a deterministic fault-injection registry for
// crash and error-path testing. Code under test declares named sites
// (`failpoint.Inject("runctl.store.rename")`); a test or operator arms
// a subset of them with a spec string, choosing an action (return an
// error, panic, kill the process, or tear a write) and a trigger
// (every hit, or exactly the N-th hit).
//
// The registry is built for two properties:
//
//   - Zero overhead when disabled. The armed registry lives behind one
//     atomic pointer; with nothing armed every site costs a single nil
//     load, so production binaries pay nothing for carrying the sites.
//
//   - Determinism. A site fires on a hit index it counts itself, so a
//     failing schedule replays exactly from the same spec.
//
// Spec grammar (terms joined by ';'):
//
//	site=action[:arg][@hit]
//
// Actions: error | panic | kill | partial[:FRACTION]. `@hit` fires on
// exactly the N-th hit (1-based); without it, every hit fires. Example:
//
//	runctl.store.rename=kill@3;obs.recorder.append=partial:0.5@2
//
// Arming happens through Enable, which the commands call with their
// -failpoints flag.
package failpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// KillExitCode is the exit status of the kill action. It mirrors the
// shell convention for SIGKILL (128+9) so harnesses can tell an
// injected crash from an ordinary failure.
const KillExitCode = 137

// Error is the error returned (or panicked) by a fired site.
type Error struct {
	Site string
	Hit  uint64 // 1-based hit index at which the site fired
}

func (e *Error) Error() string {
	return fmt.Sprintf("failpoint: injected failure at %s (hit %d)", e.Site, e.Hit)
}

// IsInjected reports whether err wraps an injected failpoint Error.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

type action uint8

const (
	actError action = iota
	actPanic
	actKill
	actPartial
)

type site struct {
	name string
	act  action
	at   uint64  // fire on exactly this hit (1-based); 0 = any hit
	frac float64 // partial action: fraction of the write to let through

	hits  atomic.Uint64
	fires atomic.Int64
}

type registry struct {
	sites map[string]*site
}

// active is the armed registry; nil means disabled. Sites load it once
// per hit, so disabling is safe at any time (in-flight hits finish
// against the old registry).
var active atomic.Pointer[registry]

// exitFn is swapped out by tests of the kill action.
var exitFn = os.Exit

// Enable parses spec and arms the registry, replacing any previous
// arming. Hit and fire counters start from zero.
func Enable(spec string) error {
	r := &registry{sites: make(map[string]*site)}
	for _, term := range strings.Split(spec, ";") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		name, value, ok := strings.Cut(term, "=")
		if !ok {
			return fmt.Errorf("failpoint: term %q is not site=action", term)
		}
		name = strings.TrimSpace(name)
		s, err := parseSite(name, strings.TrimSpace(value))
		if err != nil {
			return err
		}
		r.sites[name] = s
	}
	if len(r.sites) == 0 {
		return fmt.Errorf("failpoint: spec %q arms no sites", spec)
	}
	active.Store(r)
	return nil
}

// Disable disarms all sites.
func Disable() { active.Store(nil) }

// parseSite parses "action[:arg][@hit]".
func parseSite(name, value string) (*site, error) {
	s := &site{name: name, frac: 0.5}
	value, hit, ok := strings.Cut(value, "@")
	if ok {
		n, err := strconv.ParseUint(hit, 10, 64)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("failpoint: %s: bad @hit %q", name, hit)
		}
		s.at = n
	}
	act, arg, _ := strings.Cut(value, ":")
	switch act {
	case "error":
		s.act = actError
	case "panic":
		s.act = actPanic
	case "kill":
		s.act = actKill
	case "partial":
		s.act = actPartial
		if arg != "" {
			f, err := strconv.ParseFloat(arg, 64)
			if err != nil || f < 0 || f >= 1 {
				return nil, fmt.Errorf("failpoint: %s: bad partial fraction %q", name, arg)
			}
			s.frac = f
		}
	default:
		return nil, fmt.Errorf("failpoint: %s: unknown action %q", name, act)
	}
	return s, nil
}

// Hits returns how many times the named site has been evaluated since
// Enable (0 when disabled or unknown). For tests and harness reporting.
func Hits(name string) uint64 {
	r := active.Load()
	if r == nil {
		return 0
	}
	if s, ok := r.sites[name]; ok {
		return s.hits.Load()
	}
	return 0
}

// Fired returns how many times the named site has fired since Enable.
func Fired(name string) int64 {
	r := active.Load()
	if r == nil {
		return 0
	}
	if s, ok := r.sites[name]; ok {
		return s.fires.Load()
	}
	return 0
}

// trigger decides whether hit n (1-based) fires, and performs the
// non-returning actions. It returns the injected error for the error
// and partial actions (the caller of a partial site tears the write).
func (s *site) trigger(n uint64) error {
	if s.at != 0 && n != s.at {
		return nil
	}
	s.fires.Add(1)
	switch s.act {
	case actPanic:
		panic(&Error{Site: s.name, Hit: n})
	case actKill:
		exitFn(KillExitCode)
		return nil // unreachable with the real exitFn
	default: // actError, actPartial
		return &Error{Site: s.name, Hit: n}
	}
}

// Inject evaluates the named site. With the registry disabled or the
// site not armed it returns nil after a single atomic load. A fired
// error or partial site returns *Error; a fired panic site panics with
// *Error; a fired kill site exits the process with KillExitCode.
func Inject(name string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	s, ok := r.sites[name]
	if !ok {
		return nil
	}
	return s.trigger(s.hits.Add(1))
}

// InjectWrite performs w.Write(p) with the named site interposed. A
// fired partial site writes only a prefix of p (the site's fraction,
// rounded down) and returns the injected error — a torn write. Other
// fired actions behave as in Inject, before any bytes are written.
// When disabled this is a single atomic load plus the write.
func InjectWrite(name string, w io.Writer, p []byte) (int, error) {
	r := active.Load()
	if r == nil {
		return w.Write(p)
	}
	s, ok := r.sites[name]
	if !ok {
		return w.Write(p)
	}
	err := s.trigger(s.hits.Add(1))
	if err == nil {
		return w.Write(p)
	}
	if s.act == actPartial {
		n, werr := w.Write(p[:int(float64(len(p))*s.frac)])
		if werr != nil {
			return n, werr
		}
		return n, err
	}
	return 0, err
}
