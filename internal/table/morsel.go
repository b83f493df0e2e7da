package table

import (
	"sync"
	"sync/atomic"

	"repro/internal/txn"
	"repro/internal/vector"
)

// MorselSource hands out table segments ("morsels") to the workers of a
// scan; it is the only way to read a table. The segment list and
// per-segment row counts are snapshotted at creation, so every worker
// sees the same, fixed set of morsels regardless of concurrent (or the
// transaction's own) appends — a statement snapshot: a self-referencing
// INSERT INTO t SELECT ... FROM t terminates after exactly the
// pre-existing rows. MVCC visibility is still reconstructed per row
// from insert/delete stamps and the update undo chains, so the scan
// observes exactly the rows its transaction's snapshot allows and
// concurrent writers never block it. Workers
// draw the next unclaimed segment from a shared atomic counter — the
// morsel-driven scheduling that keeps all cores busy without any
// up-front range partitioning.
//
// The source pins the projected columns once for all workers; Close
// releases the pins. A MorselSource is safe for concurrent use; the
// MorselScanner values it hands out are not (one per worker). Each
// scanner counts what it did into plain fields of its own, and Counts
// sums them once the workers have retired.
type MorselSource struct {
	t       *DataTable
	tx      *txn.Transaction
	cols    []int
	rowIDs  bool
	opts    ScanOptions
	segs    []*segment
	ns      []int // per-segment row counts at snapshot time
	release func()
	next    atomic.Int64
	closed  atomic.Bool

	mu      sync.Mutex
	workers []*MorselScanner
}

// NewMorselSource pins the projected columns and snapshots the segment
// list for a scan. Callers must Close it to release the pins.
func (t *DataTable) NewMorselSource(tx *txn.Transaction, opts ScanOptions) (*MorselSource, error) {
	cols, err := t.resolveColumns(opts.Columns)
	if err != nil {
		return nil, err
	}
	release, err := t.PinColumns(cols)
	if err != nil {
		return nil, err
	}
	segs, ns := t.snapshotSegments()
	return &MorselSource{
		t:       t,
		tx:      tx,
		cols:    cols,
		rowIDs:  opts.WithRowIDs,
		opts:    opts,
		segs:    segs,
		ns:      ns,
		release: release,
	}, nil
}

// NumMorsels returns the total number of morsels the source will hand
// out. Sequence numbers are dense in [0, NumMorsels).
func (m *MorselSource) NumMorsels() int { return len(m.segs) }

// Worker returns a new scanner drawing morsels from the shared counter.
// Each worker goroutine must use its own.
func (m *MorselSource) Worker() *MorselScanner {
	w := &MorselScanner{
		segReader: newSegReader(m.t, m.tx, m.cols, m.rowIDs, m.opts.ZoneFilters),
		src:       m,
	}
	m.mu.Lock()
	m.workers = append(m.workers, w)
	m.mu.Unlock()
	return w
}

// Counts sums what every worker of the source did. Call it once the
// workers have retired: their counts are plain fields.
func (m *MorselSource) Counts() ScanCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	var c ScanCounts
	for _, w := range m.workers {
		c.Scanned += w.counts.Scanned
		c.Skipped += w.counts.Skipped
		c.Encoded += w.counts.Encoded
		c.EncodedRows += w.counts.EncodedRows
		c.DecodedRows += w.counts.DecodedRows
		c.SelectedRows += w.counts.SelectedRows
	}
	return c
}

// Close releases the column pins. Idempotent.
func (m *MorselSource) Close() {
	if !m.closed.Swap(true) {
		m.release()
	}
}

// MorselScanner is one worker's view of a MorselSource.
type MorselScanner struct {
	segReader
	src    *MorselSource
	counts ScanCounts
}

// Next claims the next unclaimed morsel and materializes it. It returns
// the morsel's sequence number and its snapshot-visible rows; the chunk
// is nil when the morsel holds no visible rows or its zone maps refute
// the pushed filters (the sequence number is still consumed either way,
// so callers can account for every morsel — skipping changes which
// morsels do work, never the merged output). seq is -1 when the source
// is exhausted.
//
//quack:hotpath
func (w *MorselScanner) Next() (seq int, chunk *vector.Chunk, err error) {
	idx := w.src.next.Add(1) - 1
	if idx >= int64(len(w.src.segs)) {
		return -1, nil, nil
	}
	seg := w.src.segs[idx]
	if len(w.src.opts.ZoneFilters) > 0 && segRefuted(w.src.t, seg, w.src.opts.ZoneFilters) {
		w.counts.Skipped++
		return int(idx), nil, nil
	}
	base, n := idx*SegRows, w.src.ns[idx]
	chunk, narrowed, decode, err := w.read(seg, base, n, w.src.opts.EncodedExec)
	for decode && err == nil {
		if err = w.src.t.materializeSegCols(seg, w.src.cols); err == nil {
			chunk, narrowed, decode, err = w.read(seg, base, n, w.src.opts.EncodedExec)
		}
	}
	if err != nil {
		return int(idx), nil, err
	}
	var rows int64
	if chunk != nil {
		rows = int64(chunk.Len())
	}
	w.counts.Scanned++
	w.counts.SelectedRows += rows
	if narrowed {
		// Late materialization: only the selected rows were decoded.
		w.counts.Encoded++
		w.counts.EncodedRows += rows
		w.counts.DecodedRows += rows
	} else {
		w.counts.DecodedRows += int64(n)
	}
	return int(idx), chunk, nil
}

// NextChunk returns the next non-empty chunk, or nil when the source is
// exhausted. Drained from a source's only worker it yields the table's
// visible rows in segment order — how checkpoints, COPY TO and the row
// engine read a table front to back.
func (w *MorselScanner) NextChunk() (*vector.Chunk, error) {
	for {
		seq, chunk, err := w.Next()
		if err != nil || seq < 0 || chunk != nil {
			return chunk, err
		}
	}
}
