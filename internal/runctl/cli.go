package runctl

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/failpoint"
)

// CLI bundles the run-control command-line parameters the tools share:
// budget flags, the checkpoint file, and resume selection.
type CLI struct {
	Timeout     time.Duration
	Checkpoint  string
	Resume      bool
	MaxAttempts int64
	MaxTrials   int64
	SaveEvery   int
	// Failpoints arms internal/failpoint fault-injection sites
	// (testing only; empty = disabled, zero overhead).
	Failpoints string
	// Program names the tool in interrupt messages.
	Program string
}

// RegisterFlags registers the shared run-control flags on the default
// flag set and returns the CLI to Build after flag.Parse.
func RegisterFlags(program string) *CLI {
	c := &CLI{Program: program}
	flag.DurationVar(&c.Timeout, "timeout", 0, "wall-clock budget (e.g. 30s); on expiry the run stops cleanly with partial results")
	flag.StringVar(&c.Checkpoint, "checkpoint", "", "checkpoint file: run state is saved here for -resume")
	flag.BoolVar(&c.Resume, "resume", false, "resume from the -checkpoint file instead of starting fresh")
	flag.Int64Var(&c.MaxAttempts, "max-attempts", 0, "cap on per-fault generation attempts (0 = unlimited)")
	flag.Int64Var(&c.MaxTrials, "max-trials", 0, "cap on compaction trials (0 = unlimited)")
	flag.IntVar(&c.SaveEvery, "checkpoint-every", 8, "write the periodic checkpoint every n-th work boundary")
	flag.StringVar(&c.Failpoints, "failpoints", "", "arm fault-injection sites for failure testing, e.g. 'runctl.store.rename=kill@3' (see internal/failpoint)")
	return c
}

// Build validates the parameters and constructs the Control, or returns
// (nil, nil) when no run control was requested. When a Control is
// built, SIGINT and SIGTERM are hooked: the first signal cancels the
// budget context, so engines drain in-flight work, write their
// checkpoint and return partial results (the command then exits 0 with
// a partial report); a second signal exits immediately with status 130.
func (c *CLI) Build() (*Control, error) {
	if c.Failpoints != "" {
		if err := failpoint.Enable(c.Failpoints, 1); err != nil {
			return nil, err
		}
	}
	if c.Resume && c.Checkpoint == "" {
		return nil, fmt.Errorf("-resume requires -checkpoint FILE")
	}
	if c.Timeout == 0 && c.Checkpoint == "" && c.MaxAttempts == 0 && c.MaxTrials == 0 {
		return nil, nil
	}
	// The -timeout clock starts here, right before the run.
	var ctx context.Context
	var cancel context.CancelFunc
	if c.Timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), c.Timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	ctl := &Control{
		Budget: Budget{
			Ctx:         ctx,
			MaxAttempts: c.MaxAttempts,
			MaxTrials:   c.MaxTrials,
		},
		Resume:    c.Resume,
		SaveEvery: c.SaveEvery,
	}
	if c.Checkpoint != "" {
		fs := NewFileStore(c.Checkpoint)
		fs.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, c.Program+": "+format+"\n", args...)
		}
		ctl.Store = fs
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "%s: %v — draining in-flight work and writing checkpoint (signal again to quit now)\n", c.Program, s)
		cancel()
		<-sig
		os.Exit(130)
	}()
	return ctl, nil
}
