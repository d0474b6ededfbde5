// Command scand serves ATPG as a service: an HTTP/JSON job API over
// internal/jobs. Clients submit a flow (generate, translate, sharded
// fault simulation or sharded compaction) over catalog circuits; tasks
// queue tenant-fair in priority order — disjoint Slots-aligned fault
// shards of a simulate job, restore-then-omission-chunk chains of a
// compact job — and every job is budgeted, checkpointed, observable as
// a live JSONL event stream, and resumable after a cancel, a drain or
// a process restart with results bit-identical to an uninterrupted
// run.
//
// Every task runs under a lease: the server's in-process workers
// (-workers, named local-1 … local-N) claim them through an in-memory
// form of the claim API, remote cmd/scanworker processes over HTTP
// (-workers -1 for remote-only), and both can serve one queue. A lease
// not heartbeated within -lease-ttl is reclaimed and its task re-run
// from the last checkpoint the worker uploaded, so a killed worker
// costs at most one heartbeat of progress and never a byte of the
// result. In-process checkpoints reach the job directory the same way,
// at each heartbeat and at the task's final report, so a crashed scand
// loses at most one heartbeat of in-process progress too.
//
// Usage:
//
//	scand -addr 127.0.0.1:8080 -data /var/lib/scand -workers 4
//
// SIGTERM or SIGINT drains gracefully: in-flight tasks checkpoint and
// stop at their next run-control poll, interrupted jobs settle
// suspended and resumable, and the process exits once every job is
// settled and persisted. A second signal exits immediately.
//
// Use cmd/scanctl to talk to the server, or curl directly (see the
// README's "Serving jobs" section).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/failpoint"
	"repro/internal/jobs"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address; port 0 picks a free port (see -addr-file)")
		data       = flag.String("data", "scand-data", "data directory: one subdirectory per job (status, events, checkpoints, results)")
		workers    = flag.Int("workers", 0, "task worker count (0 = GOMAXPROCS, negative = none: remote scanworkers only)")
		leaseTTL   = flag.Duration("lease-ttl", 15*time.Second, "lease TTL for in-process and remote workers: each heartbeats every third of it, carrying its checkpoint to the job directory, and a lease not heartbeated within it is reclaimed and its task re-queued")
		quota      = flag.Int("tenant-quota", 0, "max in-flight tasks per tenant across local and remote workers (0 = unlimited)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		failpoints = flag.String("failpoints", "", "arm fault-injection sites for failure testing, e.g. 'runctl.store.rename=error@2'; the runctl.store.* sites cover checkpoint, job.json and result writes (see internal/failpoint)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "scand: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "scand: ", log.LstdFlags)

	if *failpoints != "" {
		if err := failpoint.Enable(*failpoints); err != nil {
			logger.Fatal(err)
		}
	}

	srv, err := jobs.NewServer(jobs.Options{
		DataDir:     *data,
		Workers:     *workers,
		LeaseTTL:    *leaseTTL,
		TenantQuota: *quota,
		Logf:        logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			logger.Fatal(err)
		}
	}
	logger.Printf("serving %d workers on http://%s (data %s)", srv.Workers(), bound, *data)

	hs := &http.Server{Handler: srv.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Printf("%v — draining: in-flight jobs checkpoint and settle resumable (signal again to quit now)", s)
	go func() {
		<-sig
		os.Exit(130)
	}()

	// Drain the job engine first: queued tasks become suspended work,
	// running tasks checkpoint and stop at their next poll, and settling
	// closes every live event stream — so the HTTP shutdown afterwards
	// has no long-lived responses left to wait on.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	if err := <-httpDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	logger.Printf("drained; all jobs settled")
}
