package quack

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Appender is the bulk-load path (§5/§6): the application fills chunks
// with its data in the engine's native representation and hands them
// over; once a chunk is full it is appended to storage without
// per-value call overhead. One Appender per goroutine.
type Appender struct {
	db     *DB
	entry  *catalog.Table
	tx     *txn.Transaction
	ownTx  bool
	chunk  *vector.Chunk
	vals   []types.Value // AppendRow's converted row
	closed bool
	rows   int64
}

// Appender opens a bulk appender on a table, running in its own
// transaction that commits on Close.
func (db *DB) Appender(tableName string) (*Appender, error) {
	entry, err := db.core.Catalog().Table(tableName)
	if err != nil {
		return nil, err
	}
	return &Appender{
		db:    db,
		entry: entry,
		tx:    db.core.Txns().Begin(),
		ownTx: true,
		chunk: vector.NewChunk(entry.Types()),
	}, nil
}

// AppendRow appends one row of Go values (same conversions as query
// parameters; nil means NULL).
func (a *Appender) AppendRow(args ...any) error {
	if a.closed {
		return fmt.Errorf("quack: appender is closed")
	}
	if len(args) != len(a.entry.Columns) {
		return fmt.Errorf("quack: AppendRow got %d values for %d columns", len(args), len(a.entry.Columns))
	}
	// Convert and check the whole row before the chunk grows: a
	// rejected row must leave nothing behind for Close to commit.
	a.vals = a.vals[:0]
	for i, arg := range args {
		col := a.entry.Columns[i]
		v, err := toValue(arg)
		if err != nil {
			return err
		}
		cv, err := v.Cast(col.Type)
		if err != nil {
			return fmt.Errorf("quack: column %q: %w", col.Name, err)
		}
		if cv.Null && col.NotNull {
			return fmt.Errorf("quack: NOT NULL constraint violated: column %q", col.Name)
		}
		a.vals = append(a.vals, cv)
	}
	a.chunk.AppendRow(a.vals...)
	a.rows++
	if a.chunk.Len() >= vector.ChunkCapacity {
		return a.flush()
	}
	return nil
}

// AppendChunk hands a full chunk to the engine. The chunk's column
// types must match the table schema exactly; ownership transfers to the
// engine (zero-copy handover).
func (a *Appender) AppendChunk(c *Chunk) error {
	if a.closed {
		return fmt.Errorf("quack: appender is closed")
	}
	want := a.entry.Types()
	got := c.Types()
	if len(got) != len(want) {
		return fmt.Errorf("quack: AppendChunk got %d columns, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("quack: AppendChunk column %d is %s, want %s", i, got[i], want[i])
		}
	}
	if err := a.entry.CheckNotNull(c); err != nil {
		return fmt.Errorf("quack: %w", err)
	}
	if err := a.flush(); err != nil {
		return err
	}
	if err := a.entry.Data.Append(a.tx, c); err != nil {
		return err
	}
	a.logInsert(c)
	a.rows += int64(c.Len())
	return nil
}

func (a *Appender) logInsert(c *Chunk) {
	// Reuse the engine's WAL logger via the internal logger shim.
	a.db.core.LogInsert(a.tx, a.entry.Name, c)
}

func (a *Appender) flush() error {
	if a.chunk.Len() == 0 {
		return nil
	}
	if err := a.entry.Data.Append(a.tx, a.chunk); err != nil {
		return err
	}
	a.logInsert(a.chunk)
	a.chunk = vector.NewChunk(a.entry.Types())
	return nil
}

// Flush appends any buffered rows without committing.
func (a *Appender) Flush() error {
	if a.closed {
		return fmt.Errorf("quack: appender is closed")
	}
	return a.flush()
}

// Rows returns how many rows have been appended so far.
func (a *Appender) Rows() int64 { return a.rows }

// NewChunk returns an empty chunk matching the table schema, for use
// with AppendChunk.
func (a *Appender) NewChunk() *Chunk {
	return vector.NewChunk(a.entry.Types())
}

// Close flushes and commits the appender's transaction.
func (a *Appender) Close() error {
	if a.closed {
		return nil
	}
	if err := a.flush(); err != nil {
		a.closed = true
		a.db.core.Txns().Rollback(a.tx)
		return err
	}
	a.closed = true
	if _, err := a.db.core.Txns().Commit(a.tx); err != nil {
		return err
	}
	return nil
}

// Abort discards all rows appended since Open.
func (a *Appender) Abort() {
	if a.closed {
		return
	}
	a.closed = true
	a.db.core.Txns().Rollback(a.tx)
}
