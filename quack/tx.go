package quack

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
)

// Tx is an explicit transaction bound to one session. QuackDB uses
// HyPer-style serializable MVCC: readers never block writers, bulk
// updates conflict-check at row granularity, and a conflicting write
// aborts with an error the caller can retry. A statement that fails,
// for a conflict or any other reason, is undone alone and the
// transaction stays open: Commit stores the statements that succeeded.
type Tx struct {
	sess *core.Session
	done bool
}

// Begin starts an explicit transaction.
func (db *DB) Begin() (*Tx, error) {
	sess := db.core.NewSession()
	if _, err := sess.Execute("BEGIN"); err != nil {
		return nil, err
	}
	return &Tx{sess: sess}, nil
}

// Exec runs a statement inside the transaction.
func (t *Tx) Exec(sql string, args ...any) (int64, error) {
	if t.done {
		return 0, fmt.Errorf("quack: transaction already finished")
	}
	params, err := toValues(args)
	if err != nil {
		return 0, err
	}
	results, err := t.sess.Execute(sql, params...)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, r := range results {
		n += r.RowsAffected
	}
	return n, nil
}

// Query runs a SELECT inside the transaction; the result reflects the
// transaction's snapshot plus its own writes.
func (t *Tx) Query(sql string, args ...any) (*Rows, error) {
	if t.done {
		return nil, fmt.Errorf("quack: transaction already finished")
	}
	return query(t.sess, sql, args)
}

// Commit makes the transaction's changes durable and visible.
func (t *Tx) Commit() error {
	if t.done {
		return fmt.Errorf("quack: transaction already finished")
	}
	t.done = true
	_, err := t.sess.Execute("COMMIT")
	return err
}

// Rollback discards the transaction's changes.
func (t *Tx) Rollback() error {
	if t.done {
		return nil
	}
	t.done = true
	_, err := t.sess.Execute("ROLLBACK")
	return err
}

// SetJoinStrategy overrides the adaptive hash-versus-merge join choice
// for queries in this transaction (experiments E7).
func (t *Tx) SetJoinStrategy(s JoinStrategy) { t.sess.JoinStrategy = exec.JoinStrategy(s) }

// JoinStrategy selects the physical equi-join implementation.
type JoinStrategy int

// Join strategies.
const (
	// JoinAuto lets the buffer pool decide: hash join when the build
	// side fits the memory budget, out-of-core merge join otherwise.
	JoinAuto JoinStrategy = JoinStrategy(exec.JoinAuto)
	// JoinHash forces the in-memory hash join.
	JoinHash JoinStrategy = JoinStrategy(exec.JoinForceHash)
	// JoinMerge forces the out-of-core merge join.
	JoinMerge JoinStrategy = JoinStrategy(exec.JoinForceMerge)
)
