// Package sched implements the engine-wide morsel scheduler: one fixed
// pool of worker goroutines, sized at database open (QUACK_THREADS /
// GOMAXPROCS) and resized only by an explicit PRAGMA threads, that
// multiplexes runnable tasks from every active query. Queries submit
// short, non-blocking steps (process one morsel, merge one partition);
// the pool serves them in turns, so a long scan cannot starve a point
// query no matter how many sessions are active.
//
// Turn model: the runnable queries form one FIFO ring. A worker pops
// the query at the head, takes its oldest step and, if the query still
// has steps queued, puts it back at the tail; a query that becomes
// runnable joins at the tail. So a runnable query waits at most one step
// of each other runnable query, and the pick order depends only on the
// order steps were submitted in, never on how long they ran.
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

// Scheduler is the engine-wide pool. One instance per open database;
// tests that build exec contexts directly share a process-global
// default instance.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	target  int // desired pool size
	workers int // live pool goroutines
	stopped bool

	runnable []*Query // the ring: served from the head, joined at the tail

	met Metrics // optional observability hooks (zero value: off)
}

// Metrics are the scheduler's observability hooks, registered by the
// core layer at database open. All fields are optional; the zero value
// disables collection.
type Metrics struct {
	// Steps counts completed scheduler steps.
	Steps *obs.Counter
	// StepWait records, per picked step, how long its query had been
	// runnable without service — the queueing delay the turns bound.
	StepWait *obs.Histogram
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

// Query is one query's scheduling account: a FIFO of pending steps and
// its place in the ring. Created per query execution; it needs no
// explicit teardown — a drained query simply leaves the ring.
type Query struct {
	s      *Scheduler
	tasks  []Task
	queued bool      // in s.runnable
	wait   time.Time // when the query last joined the ring
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

// NewQuery opens a scheduling account. Its argument is unused: every
// query takes the same turns.
func (s *Scheduler) NewQuery(int) *Query {
	return &Query{s: s}
}

// Submit queues steps on the query's FIFO, in order and under one
// lock, and wakes up to as many workers: a step that runs and
// re-submits itself queues behind every step of the same call. A query
// that had no steps queued joins the ring at the tail.
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
		q.queued, q.wait = true, time.Now()
		s.runnable = append(s.runnable, q)
	}
	s.mu.Unlock()
	for range ts {
		s.cond.Signal()
	}
}

// pickLocked pops the next task: the oldest step of the query at the
// head of the ring, which rejoins at the tail if it has more. Caller
// holds s.mu.
func (s *Scheduler) pickLocked() Task {
	if len(s.runnable) == 0 {
		return nil
	}
	// Popped slots are cleared: a finished query's steps hold its
	// operators, and through them its tables.
	q := s.runnable[0]
	n := copy(s.runnable, s.runnable[1:])
	s.runnable[n] = nil
	s.runnable = s.runnable[:n]
	now := time.Now()
	if s.met.StepWait != nil {
		s.met.StepWait.Observe(now.Sub(q.wait).Nanoseconds())
	}
	t := q.tasks[0]
	q.tasks[0] = nil
	q.tasks = q.tasks[1:]
	q.queued = len(q.tasks) > 0
	if q.queued {
		q.wait = now
		s.runnable = append(s.runnable, q)
	}
	return t
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
		t := s.pickLocked()
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
		s.mu.Unlock()
		t()
		s.mu.Lock()
		if s.met.Steps != nil {
			s.met.Steps.Inc()
		}
	}
}
