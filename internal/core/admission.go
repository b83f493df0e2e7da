package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// admitQueueDepth bounds how many queries may wait at the gate; the
// next arrival is rejected.
const admitQueueDepth = 32

// admitState is the engine-wide admission gate. When a memory budget is
// enforced (PRAGMA memory_limit / QUACK_MEMORY_LIMIT), at most one query
// runs at a time: the operators under it reserve from the shared pool
// up to the whole limit, and hard-fail paths (hash-join builds, scan
// materialization) cannot shed to disk, so a second query in the same
// budget would trade correctness for concurrency. This turns the
// paper's cooperation requirement (§4) from a per-query property into a
// whole-process one: N greedy sessions cannot multiply the budget by N.
//
// Rules:
//   - No budget → no gate (the common embedded case stays zero-cost).
//   - A query arriving while nothing runs takes the gate at once.
//   - Otherwise it waits, first come first served, in a queue of at
//     most admitQueueDepth; one more arrival is rejected.
//   - Waiters re-read the budget on every wake-up, so lifting
//     memory_limit releases all of them.
type admitState struct {
	db      *Database
	mu      sync.Mutex
	cond    *sync.Cond
	running bool           // a gated query holds the gate
	queue   []*admitWaiter // waiters, oldest first

	met admitMetrics // optional registry hooks (zero value: off)
}

// admitMetrics are the admission gate's registry hooks, wired at
// database open. All fields optional.
type admitMetrics struct {
	admitted *obs.Counter   // queries admitted (gated path only)
	queued   *obs.Counter   // queries that had to wait in the queue
	rejected *obs.Counter   // queue-full rejections
	wait     *obs.Histogram // admission wait per admitted query
}

type admitWaiter struct {
	arrived time.Time
}

func (a *admitState) init(db *Database) {
	a.db = db
	a.cond = sync.NewCond(&a.mu)
}

// admit blocks until the query may run (or returns the queue-full
// error). The returned release must be called exactly once when the
// query finishes; it is never nil. wait is how long the query spent
// queued (zero when it was admitted at once or no budget gates it).
func (a *admitState) admit() (release func(), wait time.Duration, err error) {
	noop := func() {}
	if a.db.pool.Limit() <= 0 {
		return noop, 0, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var w *admitWaiter
	leave := func() {
		if w == nil {
			return
		}
		for i, q := range a.queue {
			if q == w {
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				break
			}
		}
		wait = time.Since(w.arrived)
		w = nil
	}
	for {
		if a.db.pool.Limit() <= 0 {
			if w != nil {
				// The next waiter may now be head of line.
				leave()
				a.cond.Broadcast()
			}
			return noop, wait, nil
		}
		if !a.running && (w == nil || a.queue[0] == w) {
			leave()
			a.running = true
			if a.met.admitted != nil {
				a.met.admitted.Inc()
			}
			if a.met.wait != nil {
				a.met.wait.Observe(wait.Nanoseconds())
			}
			// None of the other waiters can take the gate now, but they
			// re-check and sleep again. Without this wake-up the head of
			// the queue lost the gate to fresh arrivals far more often:
			// in the benchmark's file_cold serve phase 30% fewer queries
			// queued and p99 latency rose from ~70 to ~120 ms.
			a.cond.Broadcast()
			return a.release, wait, nil
		}
		if w == nil {
			if len(a.queue) >= admitQueueDepth {
				if a.met.rejected != nil {
					a.met.rejected.Inc()
				}
				return noop, 0, fmt.Errorf("query admission: queue full (%d waiting)", len(a.queue))
			}
			w = &admitWaiter{arrived: time.Now()}
			a.queue = append(a.queue, w)
			if a.met.queued != nil {
				a.met.queued.Inc()
			}
		}
		a.cond.Wait()
	}
}

// release frees the gate and wakes the waiters; the head takes it.
func (a *admitState) release() {
	a.mu.Lock()
	a.running = false
	a.mu.Unlock()
	a.cond.Broadcast()
}

// wake makes every waiter re-read the budget: memory_limit moved.
func (a *admitState) wake() {
	a.mu.Lock()
	a.cond.Broadcast()
	a.mu.Unlock()
}

// queueDepth/runningCount are the registry's gauge reads.
func (a *admitState) queueDepth() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(len(a.queue))
}

func (a *admitState) runningCount() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.running {
		return 1
	}
	return 0
}
