// Command scanworker is a remote task worker for a scand job server.
// It claims leased tasks over HTTP, runs them with the same jobs.Worker
// loop as scand's in-process workers, heartbeats each lease with its
// current checkpoint so a crash costs at most one heartbeat interval
// of work, and uploads results. Any number of scanworker processes —
// on the scand host or other machines — drain the same queue. Each
// heartbeat, result and release request times out after the lease TTL,
// so a server that stops answering cannot wedge the worker.
//
// Usage:
//
//	scanworker -server http://127.0.0.1:8080 -name worker-a
//
// SIGTERM or SIGINT stops gracefully: the in-flight task checkpoints,
// releases its lease back to the queue, and the process exits. A
// second signal exits immediately. A killed (SIGKILL) scanworker loses
// its lease to the server's janitor after the lease TTL; the task
// re-runs elsewhere from the last heartbeated checkpoint with a
// byte-identical final result.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/failpoint"
	"repro/internal/jobs"
)

func main() {
	var (
		server     = flag.String("server", "http://127.0.0.1:8080", "scand base URL")
		name       = flag.String("name", "", "worker name shown in leases and `scanctl top` (default host-pid)")
		data       = flag.String("data", "", "local checkpoint scratch directory (default under the system temp dir)")
		poll       = flag.Duration("poll", 250*time.Millisecond, "idle claim interval")
		failpoints = flag.String("failpoints", "", "arm fault-injection sites for failure testing (see internal/failpoint)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "scanworker: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logger := log.New(os.Stderr, "scanworker["+*name+"]: ", log.LstdFlags)

	if *failpoints != "" {
		if err := failpoint.Enable(*failpoints); err != nil {
			logger.Fatal(err)
		}
	}
	if *data == "" {
		dir, err := os.MkdirTemp("", "scanworker-")
		if err != nil {
			logger.Fatal(err)
		}
		defer os.RemoveAll(dir)
		*data = dir
	}

	w, err := jobs.NewWorker(jobs.WorkerOptions{
		Server:  *server,
		Name:    *name,
		DataDir: *data,
		Poll:    *poll,
		Logf:    logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Printf("%v — stopping: in-flight task checkpoints and releases its lease (signal again to quit now)", s)
		cancel()
		<-sig
		os.Exit(130)
	}()

	logger.Printf("claiming from %s", *server)
	if err := w.Run(ctx); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("stopped")
}
