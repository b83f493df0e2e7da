package sched

import (
	"fmt"
	"runtime"
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

// TestPriorityShare: with the pool saturated by two equally greedy
// queries, the higher-priority one gets materially more service. The
// margin is loose — scheduling is timing-dependent — but a fair-share
// failure (FIFO across queries) would show ~1:1.
func TestPriorityShare(t *testing.T) {
	s := New(1) // one worker makes the shares directly comparable
	defer s.Stop()
	spin := func() {
		deadline := time.Now().Add(200 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
	}
	var ranLow, ranHigh atomic.Int64
	low, high := s.NewQuery(100), s.NewQuery(400)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	mkStep := func(q *Query, n *atomic.Int64) func() {
		var step func()
		step = func() {
			select {
			case <-stop:
				wg.Done()
				return
			default:
			}
			spin()
			n.Add(1)
			q.Submit(step)
		}
		return step
	}
	wg.Add(2)
	low.Submit(mkStep(low, &ranLow))
	high.Submit(mkStep(high, &ranHigh))
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	l, h := ranLow.Load(), ranHigh.Load()
	if l == 0 {
		t.Fatal("low-priority query starved outright")
	}
	if h < l*2 {
		t.Fatalf("priority 400 ran %d steps vs %d at priority 100; want at least 2x", h, l)
	}
}
