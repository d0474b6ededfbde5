package failpoint

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestDisabledIsNil(t *testing.T) {
	Disable()
	if err := Inject("any.site"); err != nil {
		t.Fatalf("Inject while disabled: %v", err)
	}
	var buf bytes.Buffer
	n, err := InjectWrite("any.site", &buf, []byte("hello"))
	if n != 5 || err != nil {
		t.Fatalf("InjectWrite while disabled = (%d, %v), want (5, nil)", n, err)
	}
	if Hits("any.site") != 0 {
		t.Fatal("Hits while disabled != 0")
	}
}

func TestErrorEveryHit(t *testing.T) {
	defer Disable()
	if err := Enable("a.b=error"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		err := Inject("a.b")
		var fe *Error
		if !errors.As(err, &fe) {
			t.Fatalf("hit %d: err = %v, want *Error", i, err)
		}
		if fe.Site != "a.b" || fe.Hit != uint64(i) {
			t.Fatalf("hit %d: got %+v", i, fe)
		}
		if !IsInjected(err) {
			t.Fatal("IsInjected = false for injected error")
		}
	}
	if err := Inject("other.site"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
	if Hits("a.b") != 3 || Fired("a.b") != 3 {
		t.Fatalf("Hits/Fired = %d/%d, want 3/3", Hits("a.b"), Fired("a.b"))
	}
}

func TestAtHitFiresOnceAtExactHit(t *testing.T) {
	defer Disable()
	if err := Enable("s=error@3"); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 6; i++ {
		if Inject("s") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("fired at hits %v, want [3]", fired)
	}
}

func TestPanicAction(t *testing.T) {
	defer Disable()
	if err := Enable("p=panic@1"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		fe, ok := v.(*Error)
		if !ok || fe.Site != "p" {
			t.Fatalf("recovered %v, want *Error at p", v)
		}
	}()
	Inject("p")
	t.Fatal("panic site did not panic")
}

func TestKillActionUsesExitFn(t *testing.T) {
	defer Disable()
	code := -1
	old := exitFn
	exitFn = func(c int) { code = c }
	defer func() { exitFn = old }()
	if err := Enable("k=kill@1"); err != nil {
		t.Fatal(err)
	}
	Inject("k")
	if code != KillExitCode {
		t.Fatalf("exit code = %d, want %d", code, KillExitCode)
	}
}

func TestPartialWriteTearsAtFraction(t *testing.T) {
	defer Disable()
	if err := Enable("w=partial:0.5@2"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	data := []byte("0123456789")
	if n, err := InjectWrite("w", &buf, data); n != 10 || err != nil {
		t.Fatalf("hit 1 = (%d, %v), want full write", n, err)
	}
	n, err := InjectWrite("w", &buf, data)
	if !IsInjected(err) {
		t.Fatalf("hit 2 err = %v, want injected", err)
	}
	if n != 5 {
		t.Fatalf("hit 2 wrote %d bytes, want 5 (fraction 0.5)", n)
	}
	if got := buf.String(); got != "012345678901234" {
		t.Fatalf("buffer = %q", got)
	}
	if n, err := InjectWrite("w", &buf, data); n != 10 || err != nil {
		t.Fatalf("hit 3 = (%d, %v), want full write after limit", n, err)
	}
}

func TestSpecParsing(t *testing.T) {
	defer Disable()
	bad := []string{
		"",                // arms nothing
		"noequals",        // not site=action
		"s=explode",       // unknown action
		"s=error@0",       // zero hit index
		"s=partial:1.5",   // bad fraction
		"s=error%0.5",     // no probability trigger
		"s=error#2",       // no fire limit
		"s=delay:20ms",    // no delay action
		"seed=42;s=error", // no seed term
	}
	for _, spec := range bad {
		if err := Enable(spec); err == nil {
			t.Errorf("Enable(%q) succeeded, want error", spec)
			Disable()
		}
	}
	// Multiple terms arm independently.
	if err := Enable(" a = error@1 ; b = error@2 "); err != nil {
		t.Fatal(err)
	}
	if Inject("a") == nil {
		t.Fatal("a did not fire on hit 1")
	}
	if Inject("b") != nil {
		t.Fatal("b fired on hit 1")
	}
	if Inject("b") == nil {
		t.Fatal("b did not fire on hit 2")
	}
}

func TestConcurrentHitsRaceFree(t *testing.T) {
	defer Disable()
	if err := Enable("c=error"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				Inject("c")
			}
		}()
	}
	wg.Wait()
	if h := Hits("c"); h != 8000 {
		t.Fatalf("Hits = %d, want 8000", h)
	}
	if f := Fired("c"); f != 8000 {
		t.Fatalf("Fired = %d, want 8000", f)
	}
}

func TestErrorStringMentionsSiteAndHit(t *testing.T) {
	e := &Error{Site: "runctl.store.rename", Hit: 7}
	s := e.Error()
	if !strings.Contains(s, "runctl.store.rename") || !strings.Contains(s, "7") {
		t.Fatalf("error string %q missing site or hit", s)
	}
	if !strings.Contains(s, "injected") {
		t.Fatalf("error string %q should say injected", s)
	}
	_ = fmt.Sprintf("%v", e)
}
