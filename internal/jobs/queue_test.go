package jobs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// queueJob builds a detached job with one task per name for queue unit
// tests.
func queueJob(tenant string, prio int, names ...string) *job {
	j := &job{status: Status{Spec: Spec{Tenant: tenant, Priority: prio}}}
	for _, n := range names {
		j.addTask(n, n, sim.FaultRange{})
	}
	return j
}

// tenantTask builds a single detached task under a throwaway job.
func tenantTask(tenant, name string) *task {
	return queueJob(tenant, 0, name).tasks[0]
}

func taskName(t *task) string {
	return t.job.status.Tasks[t.idx].Name
}

func TestQueueTenantFairness(t *testing.T) {
	q := newQueue(0)
	// Tenant A floods three tasks before tenant B submits one; the claim
	// order must interleave B after A's first task, not after A's last.
	q.push(tenantTask("a", "a1"))
	q.push(tenantTask("a", "a2"))
	q.push(tenantTask("a", "a3"))
	q.push(tenantTask("b", "b1"))
	want := []string{"a1", "b1", "a2", "a3"}
	for i, w := range want {
		task, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue closed early", i)
		}
		if got := taskName(task); got != w {
			t.Fatalf("pop %d = %q, want %q", i, got, w)
		}
	}
}

func TestQueuePerTenantFIFO(t *testing.T) {
	q := newQueue(0)
	q.push(tenantTask("", "t1"))
	q.push(tenantTask("", "t2"))
	q.push(tenantTask("", "t3"))
	for i, w := range []string{"t1", "t2", "t3"} {
		task, _ := q.pop()
		if got := taskName(task); got != w {
			t.Fatalf("pop %d = %q, want %q", i, got, w)
		}
	}
}

func TestQueuePriorityOrdering(t *testing.T) {
	q := newQueue(0)
	low := queueJob("a", 0, "low1", "low2")
	high := queueJob("b", 5, "high1")
	q.push(low.tasks[0])
	q.push(low.tasks[1])
	q.push(high.tasks[0])
	for i, w := range []string{"high1", "low1", "low2"} {
		task, _ := q.pop()
		if got := taskName(task); got != w {
			t.Fatalf("pop %d = %q, want %q", i, got, w)
		}
	}
	if len(q.classes) != 0 {
		t.Fatalf("drained queue kept %d priority classes, want 0", len(q.classes))
	}
}

// TestQueuePruneOnDrain is the regression test for the tenant leak: a
// long-lived server accumulates one-off tenants, and a drained tenant
// must leave no entry behind in the ring, the task map or the class
// list.
func TestQueuePruneOnDrain(t *testing.T) {
	q := newQueue(0)
	for _, tn := range []string{"t1", "t2", "t3"} {
		q.push(tenantTask(tn, tn+"-task"))
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.pop(); !ok {
			t.Fatalf("pop %d: queue closed early", i)
		}
	}
	if len(q.classes) != 0 {
		t.Fatalf("drained queue kept %d priority classes, want 0", len(q.classes))
	}
	if n := q.queued(); n != 0 {
		t.Fatalf("drained queue reports %d queued tasks, want 0", n)
	}
	// A tenant returning after the prune starts a fresh FIFO.
	q.push(tenantTask("t2", "back"))
	task, _ := q.pop()
	if got := taskName(task); got != "back" {
		t.Fatalf("pop after re-push = %q, want %q", got, "back")
	}
}

// TestQueueRemoveCursorReconcile is the regression test for the cancel
// fairness bug: removing a drained tenant below the claim cursor must
// shift the cursor with the ring, or the tenant whose turn was next
// gets skipped.
func TestQueueRemoveCursorReconcile(t *testing.T) {
	q := newQueue(0)
	ja := queueJob("a", 0, "a1", "a2")
	q.push(ja.tasks[0])
	q.push(ja.tasks[1])
	q.push(tenantTask("b", "b1"))
	q.push(tenantTask("c", "c1"))
	task, _ := q.pop()
	if got := taskName(task); got != "a1" {
		t.Fatalf("pop = %q, want a1", got)
	}
	// Cancel job A: tenant a (ring slot 0, below the cursor) drains.
	if n := q.remove(ja); n != 1 {
		t.Fatalf("remove dropped %d tasks, want 1", n)
	}
	// Tenant b's turn was next and must still be next.
	for i, w := range []string{"b1", "c1"} {
		task, _ := q.pop()
		if got := taskName(task); got != w {
			t.Fatalf("pop %d after remove = %q, want %q", i, got, w)
		}
	}
}

func TestQueueRemove(t *testing.T) {
	q := newQueue(0)
	keep := tenantTask("a", "keep")
	drop := queueJob("a", 0, "drop1", "drop2")
	q.push(drop.tasks[0])
	q.push(keep)
	q.push(drop.tasks[1])
	if n := q.remove(drop); n != 2 {
		t.Fatalf("remove dropped %d tasks, want 2", n)
	}
	task, ok := q.pop()
	if !ok || task != keep {
		t.Fatalf("pop after remove = %v, want the kept task", task)
	}
	q.close()
	if _, ok := q.pop(); ok {
		t.Fatal("pop on a closed empty queue reported a task")
	}
}

func TestQueueTenantQuota(t *testing.T) {
	q := newQueue(1)
	ja := queueJob("a", 0, "a1", "a2")
	q.push(ja.tasks[0])
	q.push(ja.tasks[1])
	q.push(tenantTask("b", "b1"))
	task, ok := q.tryPop()
	if !ok || taskName(task) != "a1" {
		t.Fatalf("tryPop = %v, want a1", task)
	}
	// Tenant a is at quota; the claim must skip to tenant b.
	task, ok = q.tryPop()
	if !ok || taskName(task) != "b1" {
		t.Fatalf("tryPop with a at quota = %v, want b1", task)
	}
	if _, ok := q.tryPop(); ok {
		t.Fatal("tryPop claimed a task for a quota-capped tenant")
	}
	// A blocked pop must wake when the tenant's slot frees.
	got := make(chan string, 1)
	go func() {
		task, _ := q.pop()
		got <- taskName(task)
	}()
	q.release("a")
	select {
	case name := <-got:
		if name != "a2" {
			t.Fatalf("pop after release = %q, want a2", name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pop did not wake after release")
	}
}

// TestQueueRemoveUnderLoad cancels one job while consumers drain the
// queue concurrently: every surviving task must be claimed exactly
// once, every dropped task accounted for, and no consumer may deadlock
// on a stale cursor or an unsignaled condition variable.
func TestQueueRemoveUnderLoad(t *testing.T) {
	const perJob = 40
	q := newQueue(2)
	names := func(prefix string) []string {
		out := make([]string, perJob)
		for i := range out {
			out[i] = prefix
		}
		return out
	}
	keep := queueJob("a", 0, names("keep")...)
	drop := queueJob("b", 0, names("drop")...)
	for i := 0; i < perJob; i++ {
		q.push(keep.tasks[i])
		q.push(drop.tasks[i])
	}
	claimed := make(chan *task, 2*perJob)
	var consumers sync.WaitGroup
	for i := 0; i < 4; i++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				task, ok := q.pop()
				if !ok {
					return
				}
				claimed <- task
				q.release(task.job.status.Spec.Tenant)
			}
		}()
	}
	removed := q.remove(drop)
	seen := make(map[*task]bool)
	keepClaimed, dropClaimed := 0, 0
	count := func(task *task) {
		if seen[task] {
			t.Fatal("task claimed twice")
		}
		seen[task] = true
		if task.job == keep {
			keepClaimed++
		} else {
			dropClaimed++
		}
	}
	deadline := time.After(10 * time.Second)
	for keepClaimed < perJob {
		select {
		case task := <-claimed:
			count(task)
		case <-deadline:
			t.Fatalf("stalled: %d/%d keep tasks claimed (%d dropped, %d drop-claimed)",
				keepClaimed, perJob, removed, dropClaimed)
		}
	}
	// A consumer may still hold a drop task it popped before the last
	// keep task arrived: stop the consumers, wait for them, and count
	// every task they claimed.
	q.close()
	consumers.Wait()
	close(claimed)
	for task := range claimed {
		count(task)
	}
	if dropClaimed+removed != perJob {
		t.Fatalf("drop job accounting: %d claimed + %d removed != %d",
			dropClaimed, removed, perJob)
	}
}

func TestQueueCloseUnblocksPop(t *testing.T) {
	q := newQueue(0)
	done := make(chan bool)
	go func() {
		_, ok := q.pop()
		done <- ok
	}()
	q.close()
	if ok := <-done; ok {
		t.Fatal("pop returned a task from an empty closed queue")
	}
}
