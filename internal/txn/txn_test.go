package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

type recordingAction struct {
	committed  uint64
	rolledBack bool
}

func (a *recordingAction) Commit(ts uint64) { a.committed = ts }
func (a *recordingAction) Rollback()        { a.rolledBack = true }

func TestTimestampsMonotonic(t *testing.T) {
	m := NewManager(nil)
	var last uint64
	for i := 0; i < 10; i++ {
		tx := m.Begin()
		ts, err := m.Commit(tx)
		if err != nil {
			t.Fatal(err)
		}
		if ts <= last {
			t.Fatalf("commit ts %d not after %d", ts, last)
		}
		last = ts
	}
}

func TestVisibilityRules(t *testing.T) {
	m := NewManager(nil)
	t1 := m.Begin()
	if !t1.Sees(EpochTS) {
		t.Fatal("epoch data must be visible")
	}
	if !t1.Sees(t1.ID()) {
		t.Fatal("own writes must be visible")
	}
	t2 := m.Begin()
	if t1.Sees(t2.ID()) || t2.Sees(t1.ID()) {
		t.Fatal("other transactions' live writes visible")
	}
	if t1.Sees(Aborted) {
		t.Fatal("aborted stamp visible")
	}
	// A commit after t1 began is invisible to t1.
	ts, _ := m.Commit(t2)
	if t1.Sees(ts) {
		t.Fatal("later commit visible to older snapshot")
	}
	t3 := m.Begin()
	if !t3.Sees(ts) {
		t.Fatal("commit invisible to newer snapshot")
	}
}

func TestCommitStampsUndoActions(t *testing.T) {
	m := NewManager(nil)
	tx := m.Begin()
	a := &recordingAction{}
	tx.PushUndo(a)
	ts, err := m.Commit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if a.committed != ts || a.rolledBack {
		t.Fatalf("action state: %+v", a)
	}
}

func TestRollbackRunsInReverse(t *testing.T) {
	m := NewManager(nil)
	tx := m.Begin()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		tx.PushUndo(&funcAction{rollback: func() { order = append(order, i) }})
	}
	m.Rollback(tx)
	if fmt.Sprint(order) != "[2 1 0]" {
		t.Fatalf("rollback order %v", order)
	}
	if !tx.Done() {
		t.Fatal("not done after rollback")
	}
}

type funcAction struct{ rollback func() }

func (a *funcAction) Commit(uint64) {}
func (a *funcAction) Rollback()     { a.rollback() }

func TestDoubleCommitRejected(t *testing.T) {
	m := NewManager(nil)
	tx := m.Begin()
	m.Commit(tx)
	if _, err := m.Commit(tx); !errors.Is(err, ErrDone) {
		t.Fatalf("double commit: %v", err)
	}
	m.Rollback(tx) // must be a no-op, not a panic
}

func TestFlushFailureAborts(t *testing.T) {
	boom := errors.New("disk full")
	m := NewManager(func(log []LogRecord, ts uint64) error { return boom })
	tx := m.Begin()
	a := &recordingAction{}
	tx.PushUndo(a)
	tx.AppendLog(1, []byte("payload"))
	if _, err := m.Commit(tx); !errors.Is(err, boom) {
		t.Fatalf("flush error not surfaced: %v", err)
	}
	if !a.rolledBack {
		t.Fatal("failed commit did not roll back")
	}
	if m.ActiveCount() != 0 {
		t.Fatal("transaction leaked")
	}
}

func TestFlushReceivesRecordsAndTS(t *testing.T) {
	var gotTS uint64
	var gotRecords int
	m := NewManager(func(log []LogRecord, ts uint64) error {
		gotTS = ts
		gotRecords = len(log)
		return nil
	})
	tx := m.Begin()
	tx.AppendLog(1, []byte("a"))
	tx.AppendLog(2, []byte("b"))
	ts, _ := m.Commit(tx)
	if gotTS != ts || gotRecords != 2 {
		t.Fatalf("flush saw ts=%d records=%d", gotTS, gotRecords)
	}
}

func TestReadOnlyCommitSkipsFlush(t *testing.T) {
	called := false
	m := NewManager(func(log []LogRecord, ts uint64) error {
		called = true
		return nil
	})
	tx := m.Begin()
	if _, err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("flush called for a read-only transaction")
	}
}

func TestOldestVisibleTS(t *testing.T) {
	m := NewManager(nil)
	t1 := m.Begin()
	base := t1.StartTS()
	t2 := m.Begin()
	m.Commit(t2)
	if got := m.OldestVisibleTS(); got != base {
		t.Fatalf("oldest = %d, want %d", got, base)
	}
	m.Rollback(t1)
	if got := m.OldestVisibleTS(); got != m.LatestCommitTS() {
		t.Fatalf("oldest after release = %d, want %d", got, m.LatestCommitTS())
	}
}

func TestQuiesceBlocksCommits(t *testing.T) {
	m := NewManager(nil)
	tx := m.Begin()
	inQuiesce := make(chan struct{})
	release := make(chan struct{})
	done := make(chan uint64, 1)
	go func() {
		m.Quiesce(func(snap *Transaction, inFlight int) error {
			if inFlight != 1 {
				t.Errorf("inFlight = %d, want 1", inFlight)
			}
			close(inQuiesce)
			<-release
			return nil
		})
	}()
	<-inQuiesce
	go func() {
		ts, _ := m.Commit(tx)
		done <- ts
	}()
	select {
	case <-done:
		t.Fatal("commit completed during quiesce")
	default:
	}
	close(release)
	if ts := <-done; ts == 0 {
		t.Fatal("commit failed after quiesce")
	}
}

func TestConcurrentBeginCommit(t *testing.T) {
	m := NewManager(nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tx := m.Begin()
				if j%3 == 0 {
					m.Rollback(tx)
				} else {
					m.Commit(tx)
				}
			}
		}()
	}
	wg.Wait()
	if m.ActiveCount() != 0 {
		t.Fatalf("%d transactions leaked", m.ActiveCount())
	}
}

// TestRollbackToMark: RollbackTo undoes the actions pushed after the
// mark, newest first, and drops the log records queued after it; the
// transaction stays open and commits what came before.
func TestRollbackToMark(t *testing.T) {
	var flushed []LogRecord
	m := NewManager(func(log []LogRecord, _ uint64) error {
		flushed = log
		return nil
	})
	tx := m.Begin()
	kept := &recordingAction{}
	tx.PushUndo(kept)
	tx.AppendLog(1, []byte("kept"))
	mark := tx.Mark()
	var order []int
	for i := 0; i < 3; i++ {
		tx.PushUndo(orderAction{i, &order})
		tx.AppendLog(2, []byte("undone"))
	}
	tx.RollbackTo(mark)
	if fmt.Sprint(order) != "[2 1 0]" {
		t.Fatalf("undo order %v, want newest first", order)
	}
	after := &recordingAction{}
	tx.PushUndo(after)
	ts, err := m.Commit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if kept.committed != ts || after.committed != ts || kept.rolledBack {
		t.Fatalf("actions around the mark: kept %+v, after %+v", kept, after)
	}
	if len(order) != 3 {
		t.Fatalf("undone actions committed: %v", order)
	}
	if len(flushed) != 1 || string(flushed[0].Payload) != "kept" {
		t.Fatalf("flushed log %v, want only the record before the mark", flushed)
	}
}

// orderAction records its index when rolled back.
type orderAction struct {
	i     int
	order *[]int
}

func (a orderAction) Commit(uint64) { *a.order = append(*a.order, -1) }
func (a orderAction) Rollback()     { *a.order = append(*a.order, a.i) }
