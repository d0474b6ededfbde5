// Command scanctl is the CLI client for a scand job server.
//
// Usage:
//
//	scanctl -server http://127.0.0.1:8080 submit -flow generate -circuits s27,s298
//	scanctl list
//	scanctl get job-0001
//	scanctl watch job-0001          # stream events until the job settles
//	scanctl result job-0001         # completed job's result JSON
//	scanctl cancel job-0001
//	scanctl resume job-0001
//	scanctl checkpoints job-0001
//	scanctl top                     # live jobs + worker-fleet view
//
// submit prints the accepted job's status; add -watch to follow the
// event stream and exit non-zero unless the job completes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/jobs"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: scanctl [-server URL] COMMAND [ARGS]

commands:
  submit   -flow generate|translate|simulate|compact -circuits a,b,... [options]
  list     list all jobs
  get      ID            print one job's status
  watch    ID            stream events until the job settles
  result   ID            print a completed job's result JSON
  cancel   ID            cancel (checkpointing; resumable)
  resume   ID            resume a suspended or canceled job
  checkpoints ID [NAME]  list checkpoint artifacts, or dump one
  top      [-interval D] [-once]  live jobs + worker-fleet view
`)
	os.Exit(2)
}

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "scand base URL")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	c := &jobs.Client{Base: *server}
	ctx := context.Background()
	cmd, args := flag.Arg(0), flag.Args()[1:]

	var err error
	switch cmd {
	case "submit":
		err = submit(ctx, c, args)
	case "list":
		var list []*jobs.Status
		if list, err = c.List(ctx); err == nil {
			for _, st := range list {
				fmt.Printf("%s  %-9s  %-9s  %d tasks  %s\n",
					st.ID, st.State, st.Spec.Flow, len(st.Tasks), strings.Join(st.Spec.Circuits, ","))
			}
		}
	case "get":
		var st *jobs.Status
		if st, err = c.Get(ctx, arg1(args)); err == nil {
			err = printJSON(st)
		}
	case "watch":
		err = watch(ctx, c, arg1(args))
	case "result":
		var data []byte
		if data, err = c.Result(ctx, arg1(args)); err == nil {
			os.Stdout.Write(data)
		}
	case "cancel":
		var st *jobs.Status
		if st, err = c.Cancel(ctx, arg1(args)); err == nil {
			fmt.Printf("%s %s (resumable=%v)\n", st.ID, st.State, st.Resumable)
		}
	case "resume":
		var st *jobs.Status
		if st, err = c.Resume(ctx, arg1(args)); err == nil {
			fmt.Printf("%s %s\n", st.ID, st.State)
		}
	case "checkpoints":
		err = checkpoints(ctx, c, args)
	case "top":
		err = top(ctx, c, args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scanctl:", err)
		os.Exit(1)
	}
}

func arg1(args []string) string {
	if len(args) != 1 {
		usage()
	}
	return args[0]
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func submit(ctx context.Context, c *jobs.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var sp jobs.Spec
	var circuits string
	var doWatch bool
	fs.StringVar(&sp.Flow, "flow", "", "flow: generate, translate, simulate or compact")
	fs.StringVar(&circuits, "circuits", "", "comma-separated catalog circuits")
	fs.Uint64Var(&sp.Seed, "seed", 0, "random seed (0 = 1)")
	fs.BoolVar(&sp.NoCollapse, "no-collapse", false, "disable fault collapsing")
	fs.IntVar(&sp.Chains, "chains", 0, "scan chains (generate flow)")
	fs.IntVar(&sp.Workers, "workers", 0, "per-task fault-simulation workers (0 = GOMAXPROCS)")
	fs.BoolVar(&sp.AdiOrder, "adi-order", false, "ADI restoration order")
	fs.BoolVar(&sp.SkipBaseline, "skip-baseline", false, "skip the conventional-scan baseline")
	fs.BoolVar(&sp.SkipCompaction, "skip-compaction", false, "skip compaction")
	fs.IntVar(&sp.Partitions, "partitions", 0, "fault shards per circuit (simulate flow)")
	fs.IntVar(&sp.SeqLen, "seq-len", 0, "sequence length (simulate/compact flows; 0 = 128)")
	fs.IntVar(&sp.OmitShards, "omit-shards", 0, "omission window chunks per circuit (compact flow; 0 = 1)")
	fs.IntVar(&sp.Priority, "priority", 0, "queue priority class (higher runs first)")
	fs.Int64Var(&sp.TimeoutMS, "timeout-ms", 0, "job wall-clock budget in ms")
	fs.Int64Var(&sp.MaxAttempts, "max-attempts", 0, "per-task generation attempt cap")
	fs.Int64Var(&sp.MaxTrials, "max-trials", 0, "per-task compaction trial cap")
	fs.StringVar(&sp.Tenant, "tenant", "", "tenant for fair scheduling")
	fs.BoolVar(&doWatch, "watch", false, "follow the event stream and wait for completion")
	fs.Parse(args)
	if circuits != "" {
		sp.Circuits = strings.Split(circuits, ",")
	}
	st, err := c.Submit(ctx, sp)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "submitted %s (%d tasks)\n", st.ID, len(st.Tasks))
	if !doWatch {
		return printJSON(st)
	}
	return watch(ctx, c, st.ID)
}

func watch(ctx context.Context, c *jobs.Client, id string) error {
	st, err := c.Watch(ctx, id, os.Stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s settled: %s\n", st.ID, st.State)
	if st.State != jobs.StateComplete {
		if st.Error != "" {
			return fmt.Errorf("%s: %s", st.State, st.Error)
		}
		return fmt.Errorf("job settled %s", st.State)
	}
	return nil
}

// top renders a live jobs + worker-fleet view, refreshing in place
// until interrupted (or once with -once).
func top(ctx context.Context, c *jobs.Client, args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one snapshot and exit")
	fs.Parse(args)
	first := true
	for {
		list, err := c.List(ctx)
		if err != nil {
			return err
		}
		workers, err := c.Workers(ctx)
		if err != nil {
			return err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "JOBS (%d)\n", len(list))
		for _, st := range list {
			done := 0
			for _, t := range st.Tasks {
				if t.Done {
					done++
				}
			}
			tenant := st.Spec.Tenant
			if tenant == "" {
				tenant = "-"
			}
			fmt.Fprintf(&b, "  %s  %-9s  %-9s  prio %2d  tenant %-10s  %3d/%-3d tasks  %s\n",
				st.ID, st.State, st.Spec.Flow, st.Spec.Priority, tenant,
				done, len(st.Tasks), strings.Join(st.Spec.Circuits, ","))
		}
		fmt.Fprintf(&b, "WORKERS (%d leases)\n", len(workers))
		for _, w := range workers {
			fmt.Fprintf(&b, "  %-20s  %s  %s %s  expires %4dms\n",
				w.Worker, w.Lease, w.Job, w.Task, w.ExpiresMS)
		}
		if !first && !*once {
			// Redraw in place: cursor home + erase below.
			fmt.Print("\033[H\033[J")
		}
		os.Stdout.WriteString(b.String())
		if *once {
			return nil
		}
		first = false
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(*interval):
		}
	}
}

func checkpoints(ctx context.Context, c *jobs.Client, args []string) error {
	switch len(args) {
	case 1:
		names, err := c.Checkpoints(ctx, args[0])
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	case 2:
		data, err := c.Checkpoint(ctx, args[0], args[1])
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	default:
		usage()
		return nil
	}
}
