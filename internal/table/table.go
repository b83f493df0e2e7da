// Package table implements QuackDB's columnar table storage with
// HyPer-style MVCC (paper §2/§6). Tables are partitioned into fixed-size
// row segments; each column of each segment is a vector. Bulk updates
// are column-granular — updating one column never rewrites or copies the
// others — and deletes affect whole rows, exactly the access pattern the
// paper identifies for ETL workloads. Updates happen in place with the
// previous values kept in per-column undo chains; appends and deletes
// are tracked with per-row insert/delete stamps. Readers reconstruct
// their snapshot from the stamps and undo chains without blocking
// writers.
package table

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// SegRows is the number of row slots per segment; scans emit one chunk
// per segment, so it matches the engine's vector size.
const SegRows = vector.ChunkCapacity

// undoNode is one update to a set of rows of one column of one segment.
// rows/old are immutable after creation; stamp transitions txnID →
// commitTS (or Aborted) atomically; next is guarded by the segment lock.
type undoNode struct {
	stamp atomic.Uint64
	rows  []int32        // row offsets within the segment, ascending
	old   *vector.Vector // previous values, parallel to rows
	next  *undoNode
}

// segment holds SegRows rows of every column plus their version state.
type segment struct {
	mu   sync.RWMutex
	cols []*vector.Vector // nil when the column is not loaded/materialized
	// enc[c] is the column's still-compressed checkpoint payload; non-nil
	// only for cold-loaded segments that no scan has materialized yet.
	// Encoded payloads are immutable: every write path materializes the
	// column first. nil for segments that never came from disk.
	enc [][]byte
	n   int // rows in use

	// stats[c] are column c's zone-map statistics (widen-only superset
	// of every version of every row; see stats.go).
	stats []ColStats

	// insertID==nil means every row is stamped insertAll.
	insertID  []uint64
	insertAll uint64
	// deleteID==nil means no row was ever deleted.
	deleteID []uint64
	// updates[c] heads the undo chain of column c (newest first).
	updates []*undoNode
}

func newSegment(ncols int) *segment {
	s := &segment{
		cols:      make([]*vector.Vector, ncols),
		stats:     make([]ColStats, ncols),
		updates:   make([]*undoNode, ncols),
		insertAll: txn.EpochTS,
	}
	for c := range s.stats {
		s.stats[c].Valid = true // fresh empty segment: stats track appends
	}
	return s
}

//quack:hotpath
func (s *segment) loadInsert(r int) uint64 {
	if s.insertID == nil {
		return s.insertAll
	}
	return atomic.LoadUint64(&s.insertID[r])
}

//quack:hotpath
func (s *segment) loadDelete(r int) uint64 {
	if s.deleteID == nil {
		return 0
	}
	return atomic.LoadUint64(&s.deleteID[r])
}

// materializeInsertIDs switches from the compact all-equal representation
// to per-row stamps (first append into a recovered segment).
func (s *segment) materializeInsertIDs() {
	if s.insertID != nil {
		return
	}
	ids := make([]uint64, SegRows)
	for i := 0; i < s.n; i++ {
		ids[i] = s.insertAll
	}
	s.insertID = ids
}

func (s *segment) materializeDeleteIDs() {
	if s.deleteID == nil {
		s.deleteID = make([]uint64, SegRows)
	}
}

// ColumnLoader reads one column's persistent data, returning one
// still-compressed payload per segment (see encseg.go) plus the encoded
// byte footprint. Fresh tables have no loader.
type ColumnLoader func(col int) (encSegs [][]byte, bytes int64, err error)

// colState tracks lazy loading and eviction of one column.
type colState struct {
	loaded bool
	dirty  bool // updated since last checkpoint → must be rewritten, unevictable
	pins   int64
	bytes  int64
}

// DataTable is the in-memory + persistent storage of one table.
type DataTable struct {
	mu   sync.RWMutex // guards segs growth and rowCount
	typs []types.Type
	segs []*segment

	rowCount int64 // allocated row slots (including uncommitted/aborted)
	diskRows int64 // rows covered by the persistent chains

	loadMu      sync.Mutex // guards colState and (un)loading transitions
	cols        []colState
	loader      ColumnLoader
	pool        *buffer.Pool // may be nil (no accounting)
	appendDirty atomic.Bool  // rows appended since last checkpoint
	deleteDirty atomic.Bool  // rows deleted since last checkpoint

	// layoutDiverged is set once the in-memory row layout can differ
	// from a compacted checkpoint image (a delete committed or an
	// append rolled back). Diverged tables keep their columns resident:
	// reloading from disk would shift row positions.
	layoutDiverged atomic.Bool

	// decodeBytes, when set, counts the decoded bytes segment
	// materialization produces (engine metrics; sharded because every
	// morsel worker of a cold scan hits it).
	decodeBytes *obs.ShardedCounter
}

// SetDecodeCounter wires the engine-wide bytes-decompressed metric.
// Call before the table is scanned; nil disables counting.
func (t *DataTable) SetDecodeCounter(c *obs.ShardedCounter) { t.decodeBytes = c }

// New creates an empty table with the given column types.
func New(typs []types.Type, pool *buffer.Pool) *DataTable {
	t := &DataTable{
		typs: append([]types.Type(nil), typs...),
		cols: make([]colState, len(typs)),
		pool: pool,
	}
	for i := range t.cols {
		t.cols[i].loaded = true // nothing to load
	}
	return t
}

// NewPersisted creates a table whose first diskRows rows live on disk
// and are loaded lazily per column through loader.
func NewPersisted(typs []types.Type, diskRows int64, loader ColumnLoader, pool *buffer.Pool) *DataTable {
	t := &DataTable{
		typs:     append([]types.Type(nil), typs...),
		cols:     make([]colState, len(typs)),
		loader:   loader,
		pool:     pool,
		diskRows: diskRows,
		rowCount: diskRows,
	}
	nsegs := int((diskRows + SegRows - 1) / SegRows)
	t.segs = make([]*segment, nsegs)
	remaining := diskRows
	for i := range t.segs {
		s := newSegment(len(typs))
		s.enc = make([][]byte, len(typs))
		for c := range s.stats {
			// Unknown contents until catalog stats arrive (SetSegmentStats).
			s.stats[c] = ColStats{}
		}
		s.n = int(minI64(remaining, SegRows))
		remaining -= int64(s.n)
		t.segs[i] = s
	}
	return t
}

// Types returns the column types.
func (t *DataTable) Types() []types.Type { return t.typs }

// snapshotSegments returns the segment list and per-segment row counts
// at call time. A scan bounded by them observes no rows appended
// afterwards — not even by its own transaction — which is what makes a
// self-referencing INSERT ... SELECT terminate instead of chasing its
// own appends.
func (t *DataTable) snapshotSegments() ([]*segment, []int) {
	t.mu.RLock()
	segs := t.segs
	t.mu.RUnlock()
	ns := make([]int, len(segs))
	for i, s := range segs {
		s.mu.RLock()
		ns[i] = s.n
		s.mu.RUnlock()
	}
	return segs, ns
}

// CountVisible counts the rows visible to tx (a full visibility scan).
func (t *DataTable) CountVisible(tx *txn.Transaction) int64 {
	t.mu.RLock()
	segs := t.segs
	t.mu.RUnlock()
	var total int64
	for _, s := range segs {
		s.mu.RLock()
		for r := 0; r < s.n; r++ {
			if tx.Sees(s.loadInsert(r)) {
				if d := s.loadDelete(r); d == 0 || !tx.Sees(d) {
					total++
				}
			}
		}
		s.mu.RUnlock()
	}
	return total
}

// AppendDirty reports whether rows were appended since the last
// checkpoint reset.
func (t *DataTable) AppendDirty() bool { return t.appendDirty.Load() }

// DeleteDirty reports whether rows were deleted since the last
// checkpoint reset.
func (t *DataTable) DeleteDirty() bool { return t.deleteDirty.Load() }

// ColDirty reports whether column c was updated since the last
// checkpoint reset.
func (t *DataTable) ColDirty(c int) bool {
	t.loadMu.Lock()
	defer t.loadMu.Unlock()
	return t.cols[c].dirty
}

// LayoutDiverged reports whether in-memory row positions may no longer
// match a compacted on-disk image.
func (t *DataTable) LayoutDiverged() bool { return t.layoutDiverged.Load() }

// SetDiskRows records how many rows the persistent image covers; called
// by the checkpointer when the on-disk layout matches memory.
func (t *DataTable) SetDiskRows(n int64) {
	t.mu.Lock()
	t.diskRows = n
	t.mu.Unlock()
}

// ResetDirty clears all dirty flags (called after a checkpoint wrote the
// table).
func (t *DataTable) ResetDirty() {
	t.appendDirty.Store(false)
	t.deleteDirty.Store(false)
	t.loadMu.Lock()
	for i := range t.cols {
		t.cols[i].dirty = false
	}
	t.loadMu.Unlock()
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ---- column loading / pinning / eviction ----

// PinColumns ensures the given columns are resident and pins them until
// the returned release function is called.
func (t *DataTable) PinColumns(cols []int) (release func(), err error) {
	pinned := make([]int, 0, len(cols))
	unpin := func() {
		t.loadMu.Lock()
		for _, c := range pinned {
			t.cols[c].pins--
		}
		t.loadMu.Unlock()
	}
	for _, c := range cols {
		if err := t.ensureLoaded(c); err != nil {
			unpin()
			return nil, err
		}
		pinned = append(pinned, c)
	}
	return unpin, nil
}

// ensureLoaded loads column c from disk if needed and takes one pin.
func (t *DataTable) ensureLoaded(c int) error {
	t.loadMu.Lock()
	if t.cols[c].loaded {
		t.cols[c].pins++
		t.loadMu.Unlock()
		return nil
	}
	t.loadMu.Unlock()

	// Load outside loadMu so pool eviction callbacks can take it. The
	// loader returns the still-compressed per-segment payloads; segments
	// stay encoded until a scan or write materializes them.
	encSegs, bytes, err := t.loader(c)
	if err != nil {
		return fmt.Errorf("table: load column %d: %w", c, err)
	}
	if t.pool != nil {
		if err := t.pool.Reserve(bytes); err != nil {
			return err
		}
	}

	t.loadMu.Lock()
	defer t.loadMu.Unlock()
	if t.cols[c].loaded { // lost a load race; drop our copy
		if t.pool != nil {
			t.pool.Release(bytes)
		}
		t.cols[c].pins++
		return nil
	}
	t.mu.RLock()
	nDiskSegs := int((t.diskRows + SegRows - 1) / SegRows)
	if len(encSegs) != nDiskSegs {
		t.mu.RUnlock()
		if t.pool != nil {
			t.pool.Release(bytes)
		}
		return fmt.Errorf("table: column %d loader returned %d segments, want %d", c, len(encSegs), nDiskSegs)
	}
	for i, enc := range encSegs {
		s := t.segs[i]
		s.mu.Lock()
		if s.enc == nil {
			s.enc = make([][]byte, len(t.typs))
		}
		s.enc[c] = enc
		s.mu.Unlock()
	}
	t.mu.RUnlock()
	t.cols[c].loaded = true
	t.cols[c].bytes = bytes
	t.cols[c].pins++
	if t.pool != nil {
		t.pool.AddEvictable(&columnHandle{t: t, col: c})
	}
	return nil
}

// materializeSegCols decodes the given columns of one segment if they
// are still in their compressed checkpoint form, swapping the encoded
// footprint for the decoded one in the buffer pool. Zone-map-refuted
// segments never reach this point — that is what lets a selective scan
// skip a cold segment without touching its bytes.
//
// Decode and the pool reservation happen OUTSIDE loadMu: the pool's
// eviction callback takes loadMu via TryLock, so reserving under it
// made every column of this table unevictable for the duration — a
// tight budget then hard-failed a scan that eviction of an unpinned
// column would have satisfied. The cost is that two scanners hitting
// the same cold segment may both decode it; the loser discards its copy
// and releases its reservation at install time.
func (t *DataTable) materializeSegCols(seg *segment, cols []int) error {
	seg.mu.RLock()
	need := false
	if seg.enc != nil {
		for _, c := range cols {
			if seg.enc[c] != nil {
				need = true
				break
			}
		}
	}
	seg.mu.RUnlock()
	if !need {
		return nil
	}
	for _, c := range cols {
		seg.mu.RLock()
		var enc []byte
		if seg.enc != nil {
			enc = seg.enc[c]
		}
		n := seg.n
		seg.mu.RUnlock()
		if enc == nil {
			continue
		}
		v := vector.New(t.typs[c], SegRows)
		if err := gatherSeg(enc, t.typs[c], nil, v, nil); err != nil {
			return fmt.Errorf("table: materialize column %d: %w", c, err)
		}
		if t.decodeBytes != nil {
			t.decodeBytes.Add(vectorBytes(v))
		}
		if v.Len() != n {
			// Writes always materialize first, so an encoded segment's row
			// count cannot have drifted from its payload.
			return fmt.Errorf("table: segment holds %d rows, payload %d", n, v.Len())
		}
		delta := vectorBytes(v) - encSegBytes(enc)
		accounted := delta
		if t.pool != nil && delta > 0 {
			if err := t.pool.Reserve(delta); err != nil {
				// A scan must materialize a surviving segment to read it —
				// a pipeline leaf has no spill alternative — so residency
				// accounting is best-effort under pressure, like the merge
				// read-back cursors: Reserve already tried eviction, and
				// the morsel proceeds unaccounted rather than failing the
				// query. Spilling operators downstream still enforce the
				// budget hard.
				accounted = 0
			}
		}
		t.loadMu.Lock()
		seg.mu.Lock()
		if seg.enc == nil || seg.enc[c] == nil {
			// Lost the decode race: another scanner installed this column
			// while we worked. Drop our copy and its reservation.
			seg.mu.Unlock()
			t.loadMu.Unlock()
			if t.pool != nil && accounted > 0 {
				t.pool.Release(accounted)
			}
			continue
		}
		seg.cols[c] = v
		seg.enc[c] = nil
		seg.mu.Unlock()
		if t.pool != nil && accounted < 0 {
			t.pool.Release(-accounted)
		}
		t.cols[c].bytes += accounted
		t.loadMu.Unlock()
	}
	return nil
}

// columnHandle lets the buffer pool evict a clean, unpinned column.
type columnHandle struct {
	t   *DataTable
	col int
}

// Evict drops the column's in-memory data if it is clean, unpinned and
// fully reloadable from disk. Uses TryLock to avoid lock-order inversion
// with the pool.
func (h *columnHandle) Evict() (int64, bool) {
	t := h.t
	if !t.loadMu.TryLock() {
		return 0, false
	}
	defer t.loadMu.Unlock()
	cs := &t.cols[h.col]
	if !cs.loaded || cs.pins > 0 || cs.dirty || t.appendDirty.Load() || t.layoutDiverged.Load() {
		return 0, false
	}
	t.mu.RLock()
	// A column with live undo chains cannot be dropped: concurrent
	// snapshots still reconstruct old values through them.
	for _, s := range t.segs {
		s.mu.RLock()
		hasChain := s.updates[h.col] != nil
		s.mu.RUnlock()
		if hasChain {
			t.mu.RUnlock()
			return 0, false
		}
	}
	for _, s := range t.segs {
		s.mu.Lock()
		s.cols[h.col] = nil
		if s.enc != nil {
			s.enc[h.col] = nil
		}
		s.mu.Unlock()
	}
	t.mu.RUnlock()
	cs.loaded = false
	bytes := cs.bytes
	cs.bytes = 0
	return bytes, true
}

// ---- appends ----

// appendAction stamps appended rows at commit/rollback.
type appendAction struct {
	t     *DataTable
	seg   *segment
	first int // first row offset
	count int
}

func (a *appendAction) Commit(ts uint64) {
	for i := 0; i < a.count; i++ {
		atomic.StoreUint64(&a.seg.insertID[a.first+i], ts)
	}
}

func (a *appendAction) Rollback() {
	for i := 0; i < a.count; i++ {
		atomic.StoreUint64(&a.seg.insertID[a.first+i], txn.Aborted)
	}
	a.t.layoutDiverged.Store(true)
}

// Append bulk-appends a chunk on behalf of tx. The rows become visible
// to others when tx commits. All columns must be resident (appends touch
// every column), which Append ensures.
func (t *DataTable) Append(tx *txn.Transaction, chunk *vector.Chunk) error {
	return t.appendChunk(chunk, tx, tx.ID())
}

// AppendCommitted bulk-appends rows that are immediately visible to
// everyone (bulk load, WAL recovery). stamp is usually txn.EpochTS.
func (t *DataTable) AppendCommitted(chunk *vector.Chunk, stamp uint64) error {
	return t.appendChunk(chunk, nil, stamp)
}

// appendChunk is the one append loop: it fills the tail segment and
// then fresh ones a column range at a time, stamps the rows with stamp
// and widens the zone maps. With a tx the rows are its undoable
// appends.
func (t *DataTable) appendChunk(chunk *vector.Chunk, tx *txn.Transaction, stamp uint64) error {
	if chunk.NumCols() != len(t.typs) {
		return fmt.Errorf("table: append of %d columns into %d-column table", chunk.NumCols(), len(t.typs))
	}
	cols := make([]int, len(t.typs))
	for i := range cols {
		cols[i] = i
	}
	release, err := t.PinColumns(cols)
	if err != nil {
		return err
	}
	defer release()
	if err := t.materializeTail(cols); err != nil {
		return err
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendDirty.Store(true)
	for row := 0; row < chunk.Len(); {
		var s *segment
		if len(t.segs) > 0 {
			s = t.segs[len(t.segs)-1]
		}
		if s == nil || s.n == SegRows {
			s = newSegment(len(t.typs))
			for c, typ := range t.typs {
				s.cols[c] = vector.New(typ, SegRows)
			}
			t.segs = append(t.segs, s)
		}
		s.mu.Lock()
		if s.cols[0] == nil && len(t.typs) > 0 {
			// Recovered segment whose data pages were never needed yet;
			// appends require residency, which PinColumns plus
			// materializeTail guaranteed, so this cannot happen — guard
			// anyway.
			s.mu.Unlock()
			return fmt.Errorf("table: append into unloaded segment")
		}
		if stamp != s.insertAll {
			s.materializeInsertIDs()
		}
		k := min(SegRows-s.n, chunk.Len()-row)
		first := s.n
		for c := range t.typs {
			s.cols[c].AppendRange(chunk.Cols[c], row, k)
			s.stats[c].widenRange(chunk.Cols[c], row, k)
		}
		if s.insertID != nil {
			// Atomic like every other insertID access: concurrent
			// scanners read these stamps lock-free via loadInsert.
			for i := first; i < first+k; i++ {
				atomic.StoreUint64(&s.insertID[i], stamp)
			}
		}
		s.n += k
		s.mu.Unlock()
		if tx != nil {
			tx.PushUndo(&appendAction{t: t, seg: s, first: first, count: k})
		}
		row += k
		t.rowCount += int64(k)
	}
	return nil
}

// materializeTail decodes the last segment if it is still compressed:
// appends write into it in place. Called before taking t.mu (lock
// order: loadMu before t.mu). Full tail segments never receive appends,
// but decoding one is harmless.
func (t *DataTable) materializeTail(cols []int) error {
	t.mu.RLock()
	var tail *segment
	if len(t.segs) > 0 {
		tail = t.segs[len(t.segs)-1]
	}
	t.mu.RUnlock()
	if tail == nil {
		return nil
	}
	return t.materializeSegCols(tail, cols)
}

// ---- deletes ----

type deleteAction struct {
	seg  *segment
	rows []int32
}

func (a *deleteAction) Commit(ts uint64) {
	for _, r := range a.rows {
		atomic.StoreUint64(&a.seg.deleteID[r], ts)
	}
}

func (a *deleteAction) Rollback() {
	for _, r := range a.rows {
		atomic.StoreUint64(&a.seg.deleteID[r], 0)
	}
}

// Delete marks the given rows (global row ids, ascending) deleted on
// behalf of tx. Rows already deleted in tx's snapshot are skipped; rows
// deleted by a concurrent uncommitted or later-committed transaction
// cause ErrConflict. Returns the number of rows actually deleted.
func (t *DataTable) Delete(tx *txn.Transaction, rowIDs []int64) (int64, error) {
	t.mu.RLock()
	segs := t.segs
	t.mu.RUnlock()
	var deleted int64
	i := 0
	for i < len(rowIDs) {
		segIdx := int(rowIDs[i] / SegRows)
		if segIdx >= len(segs) {
			return deleted, fmt.Errorf("table: row id %d out of range", rowIDs[i])
		}
		s := segs[segIdx]
		var batch []int32
		s.mu.Lock()
		s.materializeDeleteIDs()
		for ; i < len(rowIDs) && int(rowIDs[i]/SegRows) == segIdx; i++ {
			r := int32(rowIDs[i] % SegRows)
			// Atomic: deleteAction.Commit/Rollback store these stamps
			// and scanners load them without taking s.mu.
			cur := atomic.LoadUint64(&s.deleteID[r])
			if cur != 0 {
				if tx.Sees(cur) {
					continue // already deleted in our snapshot
				}
				s.mu.Unlock()
				return deleted, txn.ErrConflict
			}
			atomic.StoreUint64(&s.deleteID[r], tx.ID())
			batch = append(batch, r)
		}
		s.mu.Unlock()
		if len(batch) > 0 {
			tx.PushUndo(&deleteAction{seg: s, rows: batch})
			deleted += int64(len(batch))
		}
	}
	if deleted > 0 {
		t.deleteDirty.Store(true)
		t.layoutDiverged.Store(true)
	}
	return deleted, nil
}

// ---- updates ----

type updateAction struct {
	t    *DataTable
	seg  *segment
	col  int
	node *undoNode
}

func (a *updateAction) Commit(ts uint64) { a.node.stamp.Store(ts) }

// Rollback restores the previous values and unlinks the node.
func (a *updateAction) Rollback() {
	s := a.seg
	s.mu.Lock()
	defer s.mu.Unlock()
	data := s.cols[a.col]
	for j, r := range a.node.rows {
		data.Set(int(r), a.node.old.Get(j))
	}
	// Unlink from the chain.
	if s.updates[a.col] == a.node {
		s.updates[a.col] = a.node.next
		return
	}
	for n := s.updates[a.col]; n != nil; n = n.next {
		if n.next == a.node {
			n.next = a.node.next
			return
		}
	}
}

// Update overwrites column col at the given rows (global row ids,
// ascending) with vals, in place, keeping the old values in an undo
// chain. Only this column is touched — the paper's column-granular bulk
// update. Concurrently modified rows cause ErrConflict. Returns the
// number of rows updated.
func (t *DataTable) Update(tx *txn.Transaction, col int, rowIDs []int64, vals *vector.Vector) (int64, error) {
	if col < 0 || col >= len(t.typs) {
		return 0, fmt.Errorf("table: update of column %d of %d-column table", col, len(t.typs))
	}
	if vals.Len() != len(rowIDs) {
		return 0, fmt.Errorf("table: update with %d values for %d rows", vals.Len(), len(rowIDs))
	}
	release, err := t.PinColumns([]int{col})
	if err != nil {
		return 0, err
	}
	defer release()

	t.mu.RLock()
	segs := t.segs
	t.mu.RUnlock()

	var updated int64
	i := 0
	for i < len(rowIDs) {
		segIdx := int(rowIDs[i] / SegRows)
		if segIdx >= len(segs) {
			return updated, fmt.Errorf("table: row id %d out of range", rowIDs[i])
		}
		s := segs[segIdx]
		start := i
		for ; i < len(rowIDs) && int(rowIDs[i]/SegRows) == segIdx; i++ {
		}
		batchIDs := rowIDs[start:i]

		// In-place writes require the decoded form (and invalidate the
		// immutability encoded payloads rely on).
		if err := t.materializeSegCols(s, []int{col}); err != nil {
			return updated, err
		}

		s.mu.Lock()
		// Write-write conflict checks: the rows must not have been
		// touched by a transaction we cannot see (first-updater-wins).
		conflict := false
		for _, rid := range batchIDs {
			r := int32(rid % SegRows)
			if d := s.loadDelete(int(r)); d != 0 && !tx.Sees(d) {
				conflict = true
				break
			}
		}
		if !conflict {
		chainCheck:
			for n := s.updates[col]; n != nil; n = n.next {
				st := n.stamp.Load()
				if tx.Sees(st) {
					continue
				}
				// Invisible node: any row overlap is a conflict.
				for _, rid := range batchIDs {
					r := int32(rid % SegRows)
					if containsRow(n.rows, r) {
						conflict = true
						break chainCheck
					}
				}
			}
		}
		if conflict {
			s.mu.Unlock()
			return updated, txn.ErrConflict
		}

		data := s.cols[col]
		node := &undoNode{
			rows: make([]int32, len(batchIDs)),
			old:  vector.New(t.typs[col], len(batchIDs)),
		}
		node.stamp.Store(tx.ID())
		for j, rid := range batchIDs {
			r := int(rid % SegRows)
			node.rows[j] = int32(r)
			node.old.AppendFrom(data, r)
			data.SetFrom(r, vals, start+j)
		}
		// Widen the zone map with the new values; the old ones were
		// already covered, so the stats stay a superset of every version
		// reachable through the undo chain.
		s.stats[col].widenRange(vals, start, len(batchIDs))
		node.next = s.updates[col]
		s.updates[col] = node
		s.mu.Unlock()

		tx.PushUndo(&updateAction{t: t, seg: s, col: col, node: node})
		updated += int64(len(batchIDs))
	}
	if updated > 0 {
		t.loadMu.Lock()
		t.cols[col].dirty = true
		t.loadMu.Unlock()
	}
	return updated, nil
}

func containsRow(rows []int32, r int32) bool {
	// rows is ascending; binary search.
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case rows[mid] < r:
			lo = mid + 1
		case rows[mid] > r:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// ---- vacuum ----

// Vacuum drops undo versions no active or future transaction can need:
// nodes whose commit stamp is at or below oldestVisible. It also
// collapses uniform insert stamps back to the compact representation.
func (t *DataTable) Vacuum(oldestVisible uint64) {
	t.mu.RLock()
	segs := t.segs
	t.mu.RUnlock()
	for _, s := range segs {
		s.mu.Lock()
		for c := range s.updates {
			// Keep nodes with stamp > oldestVisible (still needed) or
			// uncommitted (≥ TxnIDStart, which is > oldestVisible).
			// Nodes are relinked in place — live transactions hold
			// pointers to them for commit stamping and rollback.
			var head, tail *undoNode
			n := s.updates[c]
			for n != nil {
				next := n.next
				if n.stamp.Load() > oldestVisible {
					n.next = nil
					if tail == nil {
						head = n
					} else {
						tail.next = n
					}
					tail = n
				}
				n = next
			}
			s.updates[c] = head
		}
		if s.insertID != nil && s.n > 0 {
			uniform := true
			first := atomic.LoadUint64(&s.insertID[0])
			if first > oldestVisible {
				uniform = false
			}
			for r := 1; uniform && r < s.n; r++ {
				if atomic.LoadUint64(&s.insertID[r]) != first {
					uniform = false
				}
			}
			if uniform && s.n == SegRows {
				s.insertAll = first
				s.insertID = nil
			}
		}
		s.mu.Unlock()
	}
}
