// Package txn implements HyPer-style serializable multi-version
// concurrency control (Neumann et al., SIGMOD'15), the scheme the paper
// adopts for DuckDB (§6): writers update data in place immediately and
// keep the previous state in undo buffers; readers reconstruct their
// snapshot by applying undo records of changes they must not see. Long
// OLAP reads therefore never block concurrent ETL writes.
//
// Timestamps: live transactions get IDs from a high range (≥ TxnIDStart)
// so a version stamped with a transaction ID is invisible to everyone
// but its creator; at commit each change is re-stamped with a small,
// monotonically increasing commit timestamp. Visibility for a reader
// with snapshot S is then simply stamp ≤ S (or stamp == own ID).
package txn

import (
	"errors"
	"fmt"
	"sync"
)

// TxnIDStart is the first live-transaction ID. Commit timestamps stay
// far below it, so "stamp ≥ TxnIDStart" means "uncommitted".
const TxnIDStart uint64 = 1 << 62

// Aborted is the stamp given to versions created by rolled-back
// transactions: invisible to everyone forever.
const Aborted uint64 = ^uint64(0)

// EpochTS stamps data that predates all transactions (bulk-loaded or
// recovered rows): visible to every snapshot.
const EpochTS uint64 = 1

// ErrConflict is returned when a write-write conflict forces an abort
// (first-updater-wins serializability).
var ErrConflict = errors.New("transaction conflict: row was modified by a concurrent transaction")

// ErrDone is returned when a finished transaction is used again.
var ErrDone = errors.New("transaction has already committed or rolled back")

// UndoAction is one entry in a transaction's undo buffer. On commit the
// action re-stamps its versions with the commit timestamp; on rollback
// it restores the previous state.
type UndoAction interface {
	Commit(commitTS uint64)
	Rollback()
}

// LogRecord is a WAL record queued by the transaction's writes and
// flushed at commit. The txn package treats it as opaque.
type LogRecord struct {
	Type    byte
	Payload []byte
}

// Transaction is one unit of ACID work.
type Transaction struct {
	id      uint64
	startTS uint64
	mgr     *Manager
	undo    []UndoAction
	log     []LogRecord
	done    bool
	mu      sync.Mutex
}

// ID returns the transaction's live ID.
func (t *Transaction) ID() uint64 { return t.id }

// StartTS returns the snapshot timestamp: the newest commit visible.
func (t *Transaction) StartTS() uint64 { return t.startTS }

// Done reports whether the transaction has finished.
func (t *Transaction) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Sees reports whether a version stamp is visible to this transaction:
// its own writes, or writes committed at or before its snapshot.
func (t *Transaction) Sees(stamp uint64) bool {
	return stamp == t.id || stamp <= t.startTS
}

// PushUndo appends an undo action to the transaction's undo buffer.
func (t *Transaction) PushUndo(a UndoAction) {
	t.mu.Lock()
	t.undo = append(t.undo, a)
	t.mu.Unlock()
}

// AppendLog queues a WAL record to be flushed if the transaction commits.
func (t *Transaction) AppendLog(recType byte, payload []byte) {
	t.mu.Lock()
	t.log = append(t.log, LogRecord{Type: recType, Payload: payload})
	t.mu.Unlock()
}

// Mark is a point in a transaction's history: the lengths of its undo
// buffer and of its queued log records. A statement takes one before it
// runs so that, if it fails, RollbackTo undoes it alone.
type Mark struct{ undo, log int }

// Mark returns the transaction's current point.
func (t *Transaction) Mark() Mark {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Mark{undo: len(t.undo), log: len(t.log)}
}

// RollbackTo undoes every change made after m, newest first, and drops
// the log records queued after it, so a commit stores none of them.
// The transaction stays open.
func (t *Transaction) RollbackTo(m Mark) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	undo := t.undo[m.undo:]
	t.undo = t.undo[:m.undo:m.undo] // the next PushUndo must not overwrite undo
	clear(t.log[m.log:])
	t.log = t.log[:m.log]
	t.mu.Unlock()

	for i := len(undo) - 1; i >= 0; i-- {
		undo[i].Rollback()
	}
}

// CommitFlush is the durability hook the Manager calls under the commit
// lock: it must make the log records durable (WAL append + fsync) before
// the commit becomes visible. Errors abort the transaction.
type CommitFlush func(log []LogRecord, commitTS uint64) error

// Manager hands out transactions and serializes commit processing.
type Manager struct {
	mu       sync.Mutex
	commitTS uint64 // last assigned commit timestamp
	nextID   uint64
	active   map[uint64]*Transaction
	flush    CommitFlush // may be nil (in-memory database)
}

// NewManager returns a Manager whose first commit gets timestamp
// EpochTS+1. flush may be nil for volatile databases.
func NewManager(flush CommitFlush) *Manager {
	return &Manager{
		commitTS: EpochTS,
		nextID:   TxnIDStart,
		active:   make(map[uint64]*Transaction),
		flush:    flush,
	}
}

// Begin starts a transaction whose snapshot is the latest commit.
func (m *Manager) Begin() *Transaction {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Transaction{
		id:      m.nextID,
		startTS: m.commitTS,
		mgr:     m,
	}
	m.nextID++
	m.active[t.id] = t
	return t
}

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// LatestCommitTS returns the newest commit timestamp.
func (m *Manager) LatestCommitTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitTS
}

// OldestVisibleTS returns the highest timestamp every active and future
// transaction can see; undo versions at or below it are garbage.
func (m *Manager) OldestVisibleTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest := m.commitTS
	for _, t := range m.active {
		if t.startTS < oldest {
			oldest = t.startTS
		}
	}
	return oldest
}

// Commit makes the transaction's changes durable and visible. The commit
// lock serializes: timestamp assignment, the WAL flush, and the
// re-stamping of versions, so the WAL's commit order equals timestamp
// order. A flush failure rolls the transaction back and returns the
// error.
func (m *Manager) Commit(t *Transaction) (uint64, error) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return 0, ErrDone
	}
	undo, log := t.undo, t.log
	t.mu.Unlock()

	m.mu.Lock()
	ts := m.commitTS + 1
	if m.flush != nil && len(log) > 0 {
		if err := m.flush(log, ts); err != nil {
			m.mu.Unlock()
			m.Rollback(t)
			return 0, fmt.Errorf("commit aborted, WAL flush failed: %w", err)
		}
	}
	m.commitTS = ts
	delete(m.active, t.id)
	m.mu.Unlock()

	for _, a := range undo {
		a.Commit(ts)
	}
	t.mu.Lock()
	t.done = true
	t.undo, t.log = nil, nil
	t.mu.Unlock()
	return ts, nil
}

// Quiesce runs fn while holding the commit lock: no transaction can
// begin or commit until fn returns. fn receives a read snapshot of the
// latest committed state and the number of in-flight transactions — the
// checkpointer uses both. The snapshot must not be committed or rolled
// back.
func (m *Manager) Quiesce(fn func(snap *Transaction, inFlight int) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := &Transaction{id: m.nextID, startTS: m.commitTS, mgr: m}
	m.nextID++
	return fn(snap, len(m.active))
}

// Rollback undoes every change the transaction made, newest first.
func (m *Manager) Rollback(t *Transaction) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	undo := t.undo
	t.done = true
	t.undo, t.log = nil, nil
	t.mu.Unlock()

	for i := len(undo) - 1; i >= 0; i-- {
		undo[i].Rollback()
	}
	m.mu.Lock()
	delete(m.active, t.id)
	m.mu.Unlock()
}
