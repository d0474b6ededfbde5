package runctl

import (
	"os"
	"syscall"
	"testing"
	"time"
)

// TestBuildDrainsOnSIGTERM verifies the signal hook treats SIGTERM like
// SIGINT: the first signal cancels the budget context so engines drain
// and checkpoint. (Only one signal is sent — a second would exit the
// test process.)
func TestBuildDrainsOnSIGTERM(t *testing.T) {
	c := &CLI{Timeout: time.Hour, Program: "runctl-test"}
	ctl, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ctl == nil {
		t.Fatal("Build returned no Control despite -timeout")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctl.Budget.Ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the budget context")
	}
}

// TestBuildTimeout: -timeout bounds the run through the budget
// context, so an expired one stops with DeadlineExceeded.
func TestBuildTimeout(t *testing.T) {
	ctl, err := (&CLI{Timeout: time.Millisecond, Program: "runctl-test"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	<-ctl.Budget.Ctx.Done()
	if st, stop := ctl.ShouldStop(); !stop || st != DeadlineExceeded {
		t.Fatalf("ShouldStop after -timeout = %v, %v; want a deadline exceeded stop", st, stop)
	}
}

func TestBuildRejectsBadFailpointSpec(t *testing.T) {
	c := &CLI{Failpoints: "site=explode", Program: "runctl-test"}
	if _, err := c.Build(); err == nil {
		t.Fatal("Build accepted a bad -failpoints spec")
	}
}
