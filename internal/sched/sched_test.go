package sched

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTasksRun: every submitted task runs exactly once, across queries.
func TestTasksRun(t *testing.T) {
	s := New(4)
	defer s.Stop()
	const queries, tasks = 8, 200
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(queries * tasks)
	for q := 0; q < queries; q++ {
		qu := s.NewQuery(0)
		for i := 0; i < tasks; i++ {
			qu.Submit(func() {
				ran.Add(1)
				wg.Done()
			})
		}
	}
	wg.Wait()
	if got := ran.Load(); got != queries*tasks {
		t.Fatalf("ran %d tasks, want %d", got, queries*tasks)
	}
}

// TestResubmittingChain: the operator idiom — a task that re-submits
// itself until done — completes on a one-worker pool.
func TestResubmittingChain(t *testing.T) {
	s := New(1)
	defer s.Stop()
	q := s.NewQuery(0)
	done := make(chan struct{})
	n := 0
	var step func()
	step = func() {
		n++
		if n == 100 {
			close(done)
			return
		}
		q.Submit(step)
	}
	q.Submit(step)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("chain did not complete")
	}
	if n != 100 {
		t.Fatalf("chain ran %d steps, want 100", n)
	}
}

// TestBatchSubmitOrder: one Submit of several steps queues them all
// before any runs, so on a one-worker pool a step that re-submits
// itself runs its second step after its batch siblings, not before.
func TestBatchSubmitOrder(t *testing.T) {
	s := New(1)
	defer s.Stop()
	q := s.NewQuery(0)
	var order []string // written by the one worker only
	done := make(chan struct{})
	var a func()
	steps := 0
	a = func() {
		steps++
		order = append(order, fmt.Sprint("a", steps))
		if steps == 1 {
			q.Submit(a)
			return
		}
		close(done)
	}
	b := func() { order = append(order, "b") }
	q.Submit(a, b)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("steps did not complete")
	}
	if got := strings.Join(order, ","); got != "a1,b,a2" {
		t.Fatalf("ran %s, want a1,b,a2", got)
	}
}

// TestStopJoinsWorkers: Stop retires every pool goroutine.
func TestStopJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(8)
	q := s.NewQuery(0)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		q.Submit(func() { wg.Done() })
	}
	wg.Wait()
	s.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Stop, %d before", got, before)
	}
}

// TestResize: shrinking and growing both converge, and tasks keep
// running throughout.
func TestResize(t *testing.T) {
	s := New(8)
	defer s.Stop()
	q := s.NewQuery(0)
	var ran atomic.Int64
	var wg sync.WaitGroup
	submit := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			q.Submit(func() {
				ran.Add(1)
				wg.Done()
			})
		}
	}
	submit(100)
	s.Resize(2)
	if got := s.Size(); got != 2 {
		t.Fatalf("Size after shrink = %d", got)
	}
	submit(100)
	s.Resize(6)
	submit(100)
	wg.Wait()
	if got := ran.Load(); got != 300 {
		t.Fatalf("ran %d tasks across resizes, want 300", got)
	}
}

// spin runs the CPU for d: a step that costs real time.
func spin(d time.Duration) {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
	}
}

// TestEqualShare: two greedy queries on a one-worker pool — each step
// re-submits the next — take turns, so their step counts end within one
// of each other.
func TestEqualShare(t *testing.T) {
	s := New(1)
	defer s.Stop()
	const total = 400
	var ran [2]int // written by the one worker only
	var wg sync.WaitGroup
	// The gate holds the worker until both queries have queued.
	gate := make(chan struct{})
	s.NewQuery(0).Submit(func() { <-gate })
	wg.Add(len(ran))
	for i := range ran {
		q := s.NewQuery(0)
		var step func()
		step = func() {
			if ran[0]+ran[1] == total {
				wg.Done()
				return
			}
			ran[i]++
			q.Submit(step)
		}
		q.Submit(step)
	}
	close(gate)
	wg.Wait()
	if d := ran[0] - ran[1]; d < -1 || d > 1 {
		t.Fatalf("greedy queries ran %d and %d steps; want within 1", ran[0], ran[1])
	}
}

// TestTurnsRotate: on a one-worker pool, queries with queued steps run
// one step per turn in the order they joined, however long their steps
// take, and a query that becomes runnable behind a 1,000-step chain
// runs before the chain's second step after it.
func TestTurnsRotate(t *testing.T) {
	s := New(1)
	defer s.Stop()
	var order []byte // written by the one worker only
	var wg sync.WaitGroup
	// The gate holds the worker until all three queries have queued.
	gate := make(chan struct{})
	wg.Add(1)
	s.NewQuery(0).Submit(func() { <-gate; wg.Done() })
	const turns = 20
	for i, name := range []byte("ABC") {
		q := s.NewQuery(0)
		cost := time.Duration(i) * 100 * time.Microsecond
		for range turns {
			wg.Add(1)
			q.Submit(func() {
				spin(cost)
				order = append(order, name)
				wg.Done()
			})
		}
	}
	close(gate)
	wg.Wait()
	if got, want := string(order), strings.Repeat("ABC", turns); got != want {
		t.Fatalf("ran %s, want %s", got, want)
	}

	// The chain queues 1,000 steps at once; its 500th step makes a
	// second query runnable.
	const steps = 1000
	chain, late := s.NewQuery(0), s.NewQuery(0)
	var ran []int // chain step numbers, 0 for the late query's step
	wg.Add(steps + 1)
	chainSteps := make([]Task, steps)
	for i := range chainSteps {
		n := i + 1
		chainSteps[i] = func() {
			ran = append(ran, n)
			if n == steps/2 {
				late.Submit(func() {
					ran = append(ran, 0)
					wg.Done()
				})
			}
			wg.Done()
		}
	}
	chain.Submit(chainSteps...)
	wg.Wait()
	if len(ran) != steps+1 {
		t.Fatalf("ran %d steps, want %d", len(ran), steps+1)
	}
	at := slices.Index(ran, 0)
	if at < steps/2 || at > steps/2+1 {
		t.Fatalf("late query ran after chain step %d; want step %d or %d", ran[at-1], steps/2, steps/2+1)
	}
}
