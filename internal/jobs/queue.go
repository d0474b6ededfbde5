package jobs

import "sync"

// queue is the task queue that in-process and remote workers' claims
// drain. Tasks enqueue FIFO per tenant inside a priority class; claims
// take the highest class with claimable work and round-robin across
// that class's tenants in first-appearance order, so a tenant flooding
// hundreds of tasks delays its own backlog, not another tenant's single
// job. Fairness is at task granularity: a sharded job from tenant A and
// a job from tenant B interleave shard by shard.
//
// A per-tenant in-flight quota (0 = unlimited) additionally caps how
// many claimed-but-unfinished tasks one tenant may hold across the
// whole worker fleet; a tenant at its quota is skipped by claims until
// release is called for one of its tasks, and lower-priority work from
// other tenants runs instead of idling the fleet.
//
// Tenants whose backlog drained are pruned from the ring and the task
// map immediately (a long-lived server sees unboundedly many one-off
// tenants; dead entries would otherwise grow both structures forever
// and stretch every claim scan), with the claim cursor reconciled so
// round-robin fairness is preserved across the prune.
type queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	classes []*prioClass   // descending priority
	running map[string]int // claimed-but-unreleased tasks per tenant
	quota   int            // max in-flight tasks per tenant (0 = unlimited)
	closed  bool
}

// prioClass is one priority level's tenant-fair sub-queue.
type prioClass struct {
	prio  int
	ring  []string           // tenants in first-appearance order
	tasks map[string][]*task // per-tenant FIFO
	next  int                // ring position of the next claim
}

func newQueue(quota int) *queue {
	q := &queue{running: make(map[string]int), quota: quota}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// class returns the priority class for prio, creating it in descending
// order if absent.
func (q *queue) class(prio int) *prioClass {
	i := 0
	for ; i < len(q.classes); i++ {
		if q.classes[i].prio == prio {
			return q.classes[i]
		}
		if q.classes[i].prio < prio {
			break
		}
	}
	pc := &prioClass{prio: prio, tasks: make(map[string][]*task)}
	q.classes = append(q.classes, nil)
	copy(q.classes[i+1:], q.classes[i:])
	q.classes[i] = pc
	return pc
}

// push enqueues tasks under their jobs' tenants and priorities, all in
// one queue operation: no claim can interleave with the pushes.
func (q *queue) push(ts ...*task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	for _, t := range ts {
		sp := &t.job.status.Spec
		pc := q.class(sp.Priority)
		if _, ok := pc.tasks[sp.Tenant]; !ok {
			pc.ring = append(pc.ring, sp.Tenant)
		}
		pc.tasks[sp.Tenant] = append(pc.tasks[sp.Tenant], t)
		q.cond.Signal()
	}
}

// pruneLocked drops a drained tenant from its class (and an emptied
// class from the queue), reconciling the claim cursor: removing a ring
// entry below the cursor shifts every later tenant one slot left, so
// the cursor moves with them or the round-robin would skip a turn.
func (pc *prioClass) pruneLocked(q *queue, pos int) {
	delete(pc.tasks, pc.ring[pos])
	pc.ring = append(pc.ring[:pos], pc.ring[pos+1:]...)
	if pos < pc.next {
		pc.next--
	}
	if len(pc.ring) == 0 {
		for i, c := range q.classes {
			if c == pc {
				q.classes = append(q.classes[:i], q.classes[i+1:]...)
				break
			}
		}
	}
}

// claimLocked scans for the next claimable task: highest priority class
// first, tenant-fair within the class, skipping tenants at their
// in-flight quota. A successful claim charges the tenant's quota; the
// caller must call release(tenant) once the task finishes or is handed
// back.
func (q *queue) claimLocked() (*task, bool) {
	for _, pc := range q.classes {
		for i := 0; i < len(pc.ring); i++ {
			pos := (pc.next + i) % len(pc.ring)
			tenant := pc.ring[pos]
			if q.quota > 0 && q.running[tenant] >= q.quota {
				continue
			}
			backlog := pc.tasks[tenant]
			t := backlog[0]
			if len(backlog) == 1 {
				// Backlog drained: prune the tenant now. The cursor stays
				// at pos, where the next tenant in ring order now sits —
				// exactly the tenant whose turn follows.
				pc.pruneLocked(q, pos)
			} else {
				pc.tasks[tenant] = backlog[1:]
				// The cursor advances without wrapping so that a tenant
				// appended to the ring between claims still gets the very
				// next turn; the scan applies the modulo.
				pc.next = pos + 1
			}
			q.running[tenant]++
			return t, true
		}
	}
	return nil, false
}

// pop blocks until a task is claimable or the queue is closed.
func (q *queue) pop() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if t, ok := q.claimLocked(); ok {
			return t, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// tryPop is the non-blocking claim used by the HTTP claim API: it
// returns immediately with no task when nothing is claimable.
func (q *queue) tryPop() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false
	}
	return q.claimLocked()
}

// release returns one claimed task's quota slot for its tenant and
// wakes claimants that may have been quota-blocked on it.
func (q *queue) release(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := q.running[tenant]; n > 1 {
		q.running[tenant] = n - 1
	} else {
		delete(q.running, tenant)
	}
	q.cond.Broadcast()
}

// remove drops every queued task of one job (cancel of a queued job),
// returning how many were dropped. Tenants drained by the removal are
// pruned with the claim cursor reconciled — a cancel must not leave the
// cursor pointing past live work — and waiting claimants are woken so
// none sleeps through the state change.
func (q *queue) remove(j *job) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for ci := len(q.classes) - 1; ci >= 0; ci-- {
		pc := q.classes[ci]
		for pos := len(pc.ring) - 1; pos >= 0; pos-- {
			tenant := pc.ring[pos]
			backlog := pc.tasks[tenant]
			kept := backlog[:0]
			for _, t := range backlog {
				if t.job == j {
					n++
					continue
				}
				kept = append(kept, t)
			}
			if len(kept) == 0 {
				pc.pruneLocked(q, pos)
			} else {
				pc.tasks[tenant] = kept
			}
		}
	}
	q.cond.Broadcast()
	return n
}

// queued reports how many tasks are waiting across all classes.
func (q *queue) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, pc := range q.classes {
		for _, backlog := range pc.tasks {
			n += len(backlog)
		}
	}
	return n
}

// close wakes every blocked pop with "no more tasks".
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}
