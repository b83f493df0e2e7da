// Package sched implements the engine-wide morsel scheduler: one fixed
// pool of worker goroutines, sized at database open (QUACK_THREADS /
// GOMAXPROCS) and resized only by an explicit PRAGMA threads, that
// multiplexes runnable tasks from every active query. Queries submit
// short, non-blocking steps (process one morsel, merge one partition);
// the pool picks the next step by weighted fair share with priority
// aging, so a long scan cannot starve a point query no matter how many
// sessions are active.
//
// Fairness model: each query accrues virtual time at rate
// duration/weight for the steps it runs (weight = priority/100, so a
// priority-200 query is charged half and receives twice the share), and
// the pool always runs the runnable query with the lowest effective
// virtual time. Waiting queries age: the effective key falls the longer
// a query has been runnable without service, which bounds worst-case
// wait even against a stream of high-priority arrivals. A query that
// was idle re-enters at the floor of the runnable set's virtual times —
// sleeping banks no credit. The engine opens every query's account at
// DefaultPriority, so between queries the pool is plain fair share with
// aging; other weights come only from callers of NewQuery that pass
// one, such as this package's tests.
//
// Tasks must not block on other pool tasks. Every operator in
// internal/exec submits steps that run bounded compute (plus file IO
// for spilling operators) and either finish or re-submit themselves;
// a step that finds no room to queue its output parks instead of
// waiting, and the consuming session goroutine re-submits it when it
// takes output, so a pool of any size — including one worker — makes
// progress.
package sched

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Task is one scheduler step. It must not block waiting for another
// pool task; it may re-submit itself (or successors) to its Query.
type Task func()

// DefaultPriority is the weight-neutral priority every engine query
// runs at.
const DefaultPriority = 100

// agingRate is the virtual-time credit per nanosecond a runnable query
// waits unserved. At 0.5, a query waiting twice some duration beats a
// query that just consumed that duration at default weight, whatever
// their histories — which bounds starvation.
const agingRate = 0.5

// Scheduler is the engine-wide pool. One instance per open database;
// tests that build exec contexts directly share a process-global
// default instance.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	target  int // desired pool size
	workers int // live pool goroutines
	stopped bool

	runnable []*Query
	// lastV is the highest virtual time any query had after service;
	// a query arriving into an idle pool re-enters at this floor.
	lastV float64

	met Metrics // optional observability hooks (zero value: off)
}

// Metrics are the scheduler's observability hooks, registered by the
// core layer at database open. All fields are optional; the zero value
// disables collection.
type Metrics struct {
	// Steps counts completed scheduler steps.
	Steps *obs.Counter
	// StepWait records, per picked step, how long its query had been
	// runnable without service — the queueing delay fairness is supposed
	// to bound.
	StepWait *obs.Histogram
	// AgingPicks counts picks where priority aging changed the decision:
	// the chosen query was not the one with the lowest raw virtual time.
	AgingPicks *obs.Counter
}

// SetMetrics installs the observability hooks (hooks fire under the
// scheduler mutex, so installation at any point is safe).
func (s *Scheduler) SetMetrics(m Metrics) {
	s.mu.Lock()
	s.met = m
	s.mu.Unlock()
}

// RunnableDepth reports how many queries currently have queued steps —
// the scheduler's instantaneous backlog.
func (s *Scheduler) RunnableDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runnable)
}

// Query is one query's scheduling account: a FIFO of pending steps plus
// the fair-share bookkeeping. Created per query execution; it needs no
// explicit teardown — a drained query simply leaves the runnable set.
type Query struct {
	s       *Scheduler
	weight  float64
	vtime   float64
	wait    time.Time // when the query last became runnable unserved
	tasks   []Task
	queued  bool // in s.runnable
	running int  // steps currently executing on workers
}

// New creates a scheduler with n pool workers (floored at 1).
func New(n int) *Scheduler {
	s := &Scheduler{}
	s.cond = sync.NewCond(&s.mu)
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.target = n
	for i := 0; i < n; i++ {
		s.workers++
		go s.worker()
	}
	s.mu.Unlock()
	return s
}

// Size reports the current pool target.
func (s *Scheduler) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.target
}

// Resize changes the pool size (floored at 1). Growth spawns workers
// immediately; excess workers retire as they finish their current step.
func (s *Scheduler) Resize(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.target = n
	for s.workers < s.target && !s.stopped {
		s.workers++
		go s.worker()
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Stop drains queued tasks, retires every worker and blocks until the
// pool is empty. Submitting after Stop panics (the database is closed).
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	for s.workers > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// NewQuery opens a scheduling account with the given priority (<=0
// means DefaultPriority). Higher priority → larger CPU share.
func (s *Scheduler) NewQuery(priority int) *Query {
	if priority <= 0 {
		priority = DefaultPriority
	}
	return &Query{s: s, weight: float64(priority) / float64(DefaultPriority)}
}

// Submit queues steps on the query's FIFO, in order and under one
// lock, and wakes up to as many workers: a step that runs and
// re-submits itself queues behind every step of the same call.
func (q *Query) Submit(ts ...Task) {
	if len(ts) == 0 {
		return
	}
	s := q.s
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		panic("sched: Submit on stopped scheduler")
	}
	q.tasks = append(q.tasks, ts...)
	if !q.queued {
		q.queued = true
		q.wait = time.Now()
		// Re-enter at the runnable floor: idling banks no credit. A
		// query with a step still executing is in service, not idle —
		// clamping it would erase the vtime lead its weight earned.
		if q.running == 0 {
			floor := s.lastV
			for _, r := range s.runnable {
				if r.vtime < floor {
					floor = r.vtime
				}
			}
			if q.vtime < floor {
				q.vtime = floor
			}
		}
		s.runnable = append(s.runnable, q)
	}
	s.mu.Unlock()
	for range ts {
		s.cond.Signal()
	}
}

// pickLocked pops the next task: from the runnable query with the
// lowest aged virtual time. Caller holds s.mu.
func (s *Scheduler) pickLocked() (Task, *Query) {
	if len(s.runnable) == 0 {
		return nil, nil
	}
	now := time.Now()
	best, bestKey := -1, 0.0
	rawBest, rawV := -1, 0.0
	for i, q := range s.runnable {
		key := q.vtime - agingRate*float64(now.Sub(q.wait))
		if best < 0 || key < bestKey {
			best, bestKey = i, key
		}
		if rawBest < 0 || q.vtime < rawV {
			rawBest, rawV = i, q.vtime
		}
	}
	q := s.runnable[best]
	if s.met.StepWait != nil {
		s.met.StepWait.Observe(now.Sub(q.wait).Nanoseconds())
	}
	if s.met.AgingPicks != nil && best != rawBest {
		s.met.AgingPicks.Inc()
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	if len(q.tasks) == 0 {
		q.queued = false
		last := len(s.runnable) - 1
		s.runnable[best] = s.runnable[last]
		s.runnable = s.runnable[:last]
	} else {
		q.wait = now
	}
	return t, q
}

func (s *Scheduler) worker() {
	s.mu.Lock()
	for {
		if s.workers > s.target && !s.stopped {
			s.workers--
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		t, q := s.pickLocked()
		if t == nil {
			if s.stopped {
				s.workers--
				s.cond.Broadcast()
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		q.running++
		s.mu.Unlock()
		start := time.Now()
		t()
		d := time.Since(start)
		s.mu.Lock()
		if s.met.Steps != nil {
			s.met.Steps.Inc()
		}
		q.running--
		q.vtime += float64(d) / q.weight
		if q.vtime > s.lastV {
			s.lastV = q.vtime
		}
	}
}
