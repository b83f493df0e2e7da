package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func admitDB(t *testing.T, limit int64) *Database {
	t.Helper()
	db, err := Open(Config{Path: ":memory:", MemoryLimit: limit, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// waitQueued blocks until n queries wait at the gate.
func waitQueued(t *testing.T, db *Database, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for db.admit.queueDepth() != int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters queued", db.admit.queueDepth(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmitUnlimited: no budget, no gating.
func TestAdmitUnlimited(t *testing.T) {
	db := admitDB(t, -1)
	for i := 0; i < 100; i++ {
		release, _, err := db.admit.admit()
		if err != nil {
			t.Fatalf("admission gated an unlimited database: %v", err)
		}
		defer release()
	}
}

// TestAdmitAlwaysOne: a budget smaller than any query still admits a
// query when nothing else runs — serial progress beats deadlock.
func TestAdmitAlwaysOne(t *testing.T) {
	db := admitDB(t, 1)
	release, _, err := db.admit.admit()
	if err != nil {
		t.Fatalf("sole query rejected: %v", err)
	}
	release()
}

// TestAdmitQueueWaits: a waiter is admitted when the running query
// releases.
func TestAdmitQueueWaits(t *testing.T) {
	db := admitDB(t, 1<<20)
	r1, _, err := db.admit.admit()
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan func(), 1)
	go func() {
		r2, _, err := db.admit.admit()
		if err != nil {
			t.Errorf("queued query rejected: %v", err)
		}
		admitted <- r2
	}()
	select {
	case <-admitted:
		t.Fatal("second query admitted while the first still holds the gate")
	case <-time.After(50 * time.Millisecond):
	}
	r1()
	select {
	case r2 := <-admitted:
		r2()
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never admitted after release")
	}
}

// TestAdmitQueueFull: arrivals beyond the queue depth are rejected with
// the queue-full error while earlier waiters keep their place.
func TestAdmitQueueFull(t *testing.T) {
	db := admitDB(t, 1<<20)
	r1, _, err := db.admit.admit()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < admitQueueDepth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _, err := db.admit.admit()
			if err != nil {
				t.Errorf("waiter rejected: %v", err)
				return
			}
			r()
		}()
	}
	waitQueued(t, db, admitQueueDepth)
	if _, _, err := db.admit.admit(); err == nil {
		t.Fatal("arrival beyond queue depth admitted")
	} else if !strings.Contains(err.Error(), "queue full (32 waiting)") {
		t.Fatalf("unexpected queue-full error: %v", err)
	}
	r1()
	wg.Wait()
}

// TestAdmitFIFOOrder: waiters take the gate in the order they arrived,
// one at a time.
func TestAdmitFIFOOrder(t *testing.T) {
	db := admitDB(t, 1<<20)
	r1, _, err := db.admit.admit()
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 5
	order := make(chan int, waiters)
	var inside atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _, err := db.admit.admit()
			if err != nil {
				t.Errorf("waiter %d rejected: %v", i, err)
				return
			}
			if n := inside.Add(1); n != 1 {
				t.Errorf("waiter %d admitted beside %d others", i, n-1)
			}
			order <- i
			inside.Add(-1)
			r()
		}(i)
		// Let waiter i queue before the next one arrives.
		waitQueued(t, db, i+1)
	}
	r1()
	wg.Wait()
	close(order)
	next := 0
	for i := range order {
		if i != next {
			t.Fatalf("waiter %d admitted when waiter %d was next", i, next)
		}
		next++
	}
	if next != waiters {
		t.Fatalf("%d of %d waiters admitted", next, waiters)
	}
}

// TestAdmitLimitLifted: lifting memory_limit while queries wait releases
// every one of them at once, while the gated query still runs.
func TestAdmitLimitLifted(t *testing.T) {
	db := admitDB(t, 1<<20)
	r1, _, err := db.admit.admit()
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	released := make(chan time.Duration, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			r, wait, err := db.admit.admit()
			if err != nil {
				t.Errorf("waiter rejected: %v", err)
			}
			released <- wait
			r()
		}()
	}
	waitQueued(t, db, waiters)
	if _, err := db.NewSession().Execute("PRAGMA memory_limit=-1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		select {
		case wait := <-released:
			if wait <= 0 {
				t.Errorf("released waiter reports wait %v", wait)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d waiters released after the limit was lifted", i, waiters)
		}
	}
	if n := db.admit.queueDepth(); n != 0 {
		t.Fatalf("%d waiters still queued", n)
	}
	r1()
}
