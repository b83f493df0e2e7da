// Package extsort implements external merge sort over chunks: rows are
// collected until a memory budget is exceeded, sorted runs are spilled
// to temporary files, and a k-way merge streams the totally ordered
// result. This is the out-of-core substrate behind the merge join the
// paper's cooperation section trades against the hash join (§4): fewer
// resident bytes, more CPU cycles plus disk IO.
//
// Every comparison — run sort, loser tree, partition seeks — is over
// normalized keys: keys.go has the byte layout, runsort.go the radix
// sort over it.
package extsort

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/types"
	"repro/internal/vector"
)

// runChunkReads counts run chunks read back. Tests assert the spill-time
// boundary samples keep PartitionMerge's quantile sampling and seek
// probes from re-reading run chunks.
var runChunkReads atomic.Int64

// Key describes one sort key over the chunk's columns.
type Key struct {
	Col        int
	Desc       bool
	NullsFirst bool
}

// Sorter accumulates chunks and produces a sorted stream.
type Sorter struct {
	colTypes []types.Type
	keys     []Key
	budget   int64 // bytes of buffered rows before spilling; <=0: no spill
	tmpDir   string
	pool     *buffer.Pool // optional memory accounting
	layout   *keyLayout

	chunks   []*vector.Chunk
	rows     int     // buffered rows
	bytes    int64   // buffered rows plus their encoded keys
	tail     *memRun // the buffered rows Seal sorted
	reserved int64
	runs     []runFile
	spilled  int64 // bytes spilled (stats)
}

// runFile is one spilled sorted run: the (unlinked) temp file plus the
// file offset of every encoded chunk. The offset index is what lets the
// partitioned merge binary-search a run for a key-range start without
// streaming it from the beginning. samples is the run's boundary
// footer — the first row of every chunk, captured while the rows were
// still in memory at spill time — so quantile sampling for the
// partitioned merge costs zero read-back IO.
type runFile struct {
	f       *os.File
	offs    []int64
	size    int64 // bytes written: the end of the last chunk
	rows    int   // every chunk holds ChunkCapacity rows but the last
	samples *keyedRows
}

// NewSorter returns a sorter for chunks with the given column types.
// budget <= 0 disables spilling (fully in-memory sort).
func NewSorter(colTypes []types.Type, keys []Key, budget int64, tmpDir string) *Sorter {
	return &Sorter{
		colTypes: append([]types.Type(nil), colTypes...),
		keys:     keys,
		budget:   budget,
		tmpDir:   tmpDir,
		layout:   newKeyLayout(colTypes, keys),
	}
}

// SpilledBytes reports how many bytes were written to temporary runs.
func (s *Sorter) SpilledBytes() int64 { return s.spilled }

// SetPool enables buffer-pool accounting of the sorter's resident rows.
func (s *Sorter) SetPool(p *buffer.Pool) { s.pool = p }

// Add buffers a chunk, spilling a sorted run if the budget is exceeded.
// Against the budget a row counts its column bytes plus the encoded key
// the run sort will build for it, so a budgeted sorter spills early
// enough to hold both; the pool reservation for the keys is made when
// their buffer is allocated (sortBuffered). A full pool never fails Add:
// the sorter first spills what it holds, and a chunk that still does
// not fit (other owners hold the pool) is spilled at once as a run of
// its own — the chunk exists already, writing it out is what frees it.
func (s *Sorter) Add(c *vector.Chunk) error {
	if c.Len() == 0 {
		return nil
	}
	b := c.HeapBytes()
	fits := s.reserve(b)
	if !fits && len(s.chunks) > 0 {
		if err := s.spill(); err != nil {
			return err
		}
		fits = s.reserve(b)
	}
	s.chunks = append(s.chunks, c)
	s.rows += c.Len()
	s.bytes += b + int64(c.Len())*s.layout.sortBytesPerRow()
	if !fits || (s.budget > 0 && s.bytes > s.budget) {
		return s.spill()
	}
	return nil
}

// reserve takes n more bytes from the pool into s.reserved and reports
// whether they fit (always, without a pool).
func (s *Sorter) reserve(n int64) bool {
	if s.pool == nil {
		return true
	}
	if s.pool.Reserve(n) != nil {
		return false
	}
	s.reserved += n
	return true
}

func (s *Sorter) releaseReserved() {
	if s.pool != nil && s.reserved > 0 {
		s.pool.Release(s.reserved)
		s.reserved = 0
	}
}

// memRun is a sorted in-memory run: the buffered chunks and their n
// encoded rows in sort order, each row's ordinal naming its chunk row.
type memRun struct {
	l      *keyLayout
	chunks []*vector.Chunk
	rows   []byte
	n      int
}

func (m *memRun) len() int { return m.n }

// key returns the key bytes of the run's i-th row.
func (m *memRun) key(i int) []byte {
	p := i * m.l.stride
	return m.rows[p : p+m.l.width]
}

// ref returns the chunk row the run's i-th row encodes.
func (m *memRun) ref(i int) (*vector.Chunk, int) {
	ord := binary.BigEndian.Uint64(m.rows[i*m.l.stride+m.l.width:])
	return m.chunks[ord>>32], int(uint32(ord))
}

// sortBuffered builds the buffered rows' sorted run: it reserves the key
// buffer from the pool (into s.reserved, released or moved with the
// rows), encodes the keys and sorts them. When the pool cannot hold the
// buffer, must makes it return nil; otherwise the sort goes ahead with
// the buffer unreserved.
func (s *Sorter) sortBuffered(must bool) *memRun {
	if !s.reserve(int64(s.rows)*s.layout.sortBytesPerRow()) && must {
		return nil
	}
	rows := make([]byte, s.rows*s.layout.stride)
	off := 0
	for ci, c := range s.chunks {
		s.layout.encodeChunk(rows[off:], c, ci)
		off += c.Len() * s.layout.stride
	}
	rs := runSorter{l: s.layout, rows: rows, chunks: s.chunks}
	rs.sort()
	return &memRun{l: s.layout, chunks: s.chunks, rows: rows, n: s.rows}
}

// Seal sorts the buffered rows into the sorter's in-memory tail, which
// merges straight from memory, or spills them as the last run when the
// pool has no room for their keys. Producers of a multi-producer sort
// each seal their own sorter, so the tails sort concurrently; Finish and
// MergeFinish seal whatever nobody sealed. No Add may follow.
func (s *Sorter) Seal() error {
	if len(s.chunks) == 0 {
		return nil
	}
	if s.tail = s.sortBuffered(true); s.tail == nil {
		return s.spill()
	}
	s.chunks, s.rows, s.bytes = nil, 0, 0
	return nil
}

// gatherer materializes sorted rows a column at a time: the rows of one
// output chunk are first collected as (source chunk, row) picks.
type gatherer struct {
	srcs [vector.ChunkCapacity]*vector.Chunk
	rows [vector.ChunkCapacity]int32
	n    int
}

//quack:hotpath
func (g *gatherer) pickRun(m *memRun, from, n int) {
	w, stride := m.l.width, m.l.stride
	for i, p := 0, from*stride+w; i < n; i, p = i+1, p+stride {
		ord := binary.BigEndian.Uint64(m.rows[p : p+8])
		g.srcs[i], g.rows[i] = m.chunks[ord>>32], int32(uint32(ord))
	}
	g.n = n
}

// into fills out with the picked rows.
func (g *gatherer) into(out *vector.Chunk) {
	vector.GatherInto(out, 0, g.srcs[:g.n], g.rows[:g.n])
	g.n = 0
}

func (s *Sorter) spill() error {
	// Spilling is what frees memory, so a pool too full for the key
	// buffer does not stop it: the buffer then lives unreserved for the
	// length of this call, like a merge cursor's chunk.
	run := s.sortBuffered(false)
	f, err := os.CreateTemp(s.tmpDir, "quack-sort-*.run")
	if err != nil {
		return fmt.Errorf("extsort: create run: %w", err)
	}
	// Unlink immediately; the fd keeps it alive (no litter on crash).
	//lint:ignore erracc unlink-while-open spill idiom: a failed remove only delays tmp cleanup, the data lives on the open fd
	os.Remove(f.Name())
	out := vector.NewChunk(s.colTypes)
	samples := newKeyedRows(s.layout, s.colTypes)
	var g gatherer
	var buf []byte
	var offs []int64
	var written int64
	for from, total := 0, run.len(); from < total; from += vector.ChunkCapacity {
		g.pickRun(run, from, min(total-from, vector.ChunkCapacity))
		g.into(out)
		// Boundary footer: remember each chunk's first (lowest) row while
		// it is still in memory, so partitioning never reads it back.
		samples.add(out, 0, run.key(from))
		buf = vector.EncodeChunk(buf[:0], out)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(buf)))
		if _, err := f.Write(hdr[:]); err == nil {
			_, err = f.Write(buf)
		}
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("extsort: write run: %w", err)
		}
		offs = append(offs, written)
		written += int64(len(buf) + 4)
		out.Reset()
	}
	s.spilled += written
	s.runs = append(s.runs, runFile{f: f, offs: offs, size: written, rows: run.len(), samples: samples})
	s.chunks, s.rows, s.bytes = nil, 0, 0
	s.releaseReserved()
	return nil
}

// Finish completes the sort and returns an iterator over sorted chunks:
// the merge of this one sorter. The sorter must not be Added to
// afterwards.
func (s *Sorter) Finish() (*Iterator, error) {
	return MergeFinish([]*Sorter{s})
}

// MergeFinish finishes every sorter and returns one iterator k-way
// merging all of their sorted runs and in-memory buffers. This is the
// multi-producer path of the parallel sort: each worker registers the
// runs it built, and the merge treats foreign runs exactly like its
// own. All sorters must share column types and keys; ownership of their
// runs and buffered rows (including pool reservations) moves to the
// iterator even on error.
func MergeFinish(sorters []*Sorter) (*Iterator, error) {
	it := &Iterator{}
	for _, s := range sorters {
		if it.colTypes == nil {
			it.colTypes = s.colTypes
			it.keys = s.keys
			it.layout = s.layout
		}
		if err := s.registerInto(it); err != nil {
			it.Close()
			return nil, err
		}
	}
	return it, nil
}

// registerInto seals the sorter and hands its spilled runs and sorted
// tail to a merging iterator, transferring pool-reservation ownership
// (once sealed, file ownership moves to it.files even on error — the
// caller closes the iterator, and the sorter, which keeps whatever a
// failed tail spill left it). The sorter is left empty.
func (s *Sorter) registerInto(it *Iterator) error {
	if err := s.Seal(); err != nil {
		return err
	}
	tail := s.tail
	s.tail = nil
	if s.pool != nil {
		it.pool = s.pool
		it.reserved += s.reserved
		s.reserved = 0
	}
	runs := s.runs
	s.runs = nil
	for _, r := range runs {
		it.files = append(it.files, r.f)
	}
	for _, r := range runs {
		c := &runCursor{l: it.layout, run: r, pool: it.pool}
		if err := c.load(); err != nil {
			c.close()
			return err
		}
		if c.cur != nil {
			it.cursors = append(it.cursors, c)
			it.left += r.rows
		}
	}
	if tail != nil {
		it.cursors = append(it.cursors, &memCursor{run: tail})
		it.left += tail.n
	}
	if s.layout != it.layout {
		// One counter per merge: fold this producer's run-sort fallbacks
		// into the layout the merge compares with.
		it.layout.fallbacks.Add(s.layout.fallbacks.Load())
	}
	return nil
}

// Close releases temp files early (Finish's iterator also closes them as
// runs drain).
func (s *Sorter) Close() {
	for _, r := range s.runs {
		_ = r.f.Close()
	}
	s.runs = nil
	s.chunks, s.rows, s.bytes, s.tail = nil, 0, 0, nil
	s.releaseReserved()
}

// Iterator streams sorted chunks.
type Iterator struct {
	colTypes []types.Type
	keys     []Key
	layout   *keyLayout
	pool     *buffer.Pool
	reserved int64

	// files are the run files this iterator owns; they stay open until
	// Close so partitioned-merge cursors can keep pread-ing them.
	files []*os.File

	// Each cursor walks one sorted sequence (a spilled run file or a
	// producer's sorted in-memory buffer); the loser tree replays only
	// the advanced cursor's path per emitted row.
	cursors []cursor
	lt      *loserTree
	// The iterator drops its merge's first skip rows and emits the next
	// left: a PartitionMerge range is a row range of the serial merge.
	skip, left int

	gather gatherer

	// shared marks a range iterator returned by PartitionMerge: its
	// cursors read the parent's files and buffers, which the parent
	// alone closes/releases.
	shared bool
	// handedOff marks a parent whose cursors moved to PartitionMerge
	// ranges; Next on it is a programming error.
	handedOff bool
	// err is the sticky stream error: after a cursor failure (which
	// eagerly closed everything) further Next calls must keep failing,
	// not read as a clean end of stream.
	err error
}

// Rows is how many rows the iterator has yet to emit: before its first
// Next, a PartitionMerge range's row count.
func (it *Iterator) Rows() int { return it.left }

// KeyBytes is the width of one row's normalized sort key, arrival
// ordinal included.
func (it *Iterator) KeyBytes() int { return it.layout.stride }

// TieFallbacks reports how many comparisons so far — in the run sorts
// that fed this iterator, its merge and the ranges PartitionMerge cut
// from it — tied on an encoded VARCHAR prefix and compared the full
// strings.
func (it *Iterator) TieFallbacks() int64 { return it.layout.fallbacks.Load() }

// Next returns the next sorted chunk, or nil at the end. Any error
// closes the iterator's cursors and run files eagerly — callers may
// still Close (idempotent), but no fd waits on them — and is sticky:
// subsequent Next calls return it again.
func (it *Iterator) Next() (*vector.Chunk, error) {
	if it.err != nil {
		return nil, it.err
	}
	if it.handedOff {
		return nil, fmt.Errorf("extsort: Next on a partitioned iterator")
	}
	if it.left == 0 {
		return nil, nil
	}
	if it.lt == nil {
		it.lt = newLoserTree(it.cursors, it.layout)
	}
	n := min(it.left, vector.ChunkCapacity)
	if m, ok := it.cursors[0].(*memCursor); ok && len(it.cursors) == 1 {
		m.pos += it.skip // a lone run drains in bulk
		it.gather.pickRun(m.run, m.pos, n)
		m.pos, it.skip = m.pos+n, 0
	} else if err := it.mergePicks(n); err != nil {
		it.err = err
		it.Close()
		return nil, err
	}
	it.left -= n
	out := vector.NewChunk(it.colTypes)
	it.gather.into(out)
	return out, nil
}

// errShortMerge reports cursors that ran out before the iterator's row
// count did: a run that lost rows.
var errShortMerge = errors.New("extsort: merge ran out of rows")

// mergePicks pops the next n winners off the loser tree, after the skip
// rows before them. A picked chunk stays alive through its pick after
// its cursor moves on. The iterator's last row is picked but not popped,
// so no cursor loads a run chunk past it.
//
//quack:hotpath
func (it *Iterator) mergePicks(n int) error {
	g := &it.gather
	for g.n < n {
		w := it.lt.winner()
		if w < 0 {
			g.n = 0
			return errShortMerge
		}
		c := it.cursors[w]
		if it.skip > 0 {
			it.skip--
		} else {
			g.srcs[g.n], g.rows[g.n] = c.chunk(), int32(c.rowIdx())
			if g.n++; g.n == it.left {
				break
			}
		}
		if err := c.advance(); err != nil {
			g.n = 0
			return err
		}
		it.lt.fix(w)
	}
	return nil
}

// Close releases all remaining run files and buffered-row reservations.
// Safe to call at any point, including before the stream is drained.
// Range iterators from PartitionMerge only drop their cursors; the
// parent owns (and closes) the underlying files and reservations.
func (it *Iterator) Close() {
	for _, c := range it.cursors {
		c.close()
	}
	it.cursors = nil
	it.lt = nil
	it.gather = gatherer{}
	if it.shared {
		return
	}
	for _, f := range it.files {
		_ = f.Close()
	}
	it.files = nil
	if it.pool != nil && it.reserved > 0 {
		it.pool.Release(it.reserved)
		it.reserved = 0
	}
}

// cursor walks one sorted sequence of rows. chunk returns nil when the
// sequence is exhausted; key is the current row's encoded key.
type cursor interface {
	chunk() *vector.Chunk
	rowIdx() int
	key() []byte
	advance() error
	close()
}

// memCursor walks a producer's sorted in-memory run.
type memCursor struct {
	run *memRun
	pos int
}

func (c *memCursor) chunk() *vector.Chunk {
	if c.run == nil || c.pos >= c.run.n {
		return nil
	}
	ch, _ := c.run.ref(c.pos)
	return ch
}

func (c *memCursor) rowIdx() int {
	_, r := c.run.ref(c.pos)
	return r
}

func (c *memCursor) key() []byte    { return c.run.key(c.pos) }
func (c *memCursor) advance() error { c.pos++; return nil }
func (c *memCursor) close()         { c.run = nil }

// runCursor walks a spilled run via positional reads, so any number of
// cursors (one per key-range partition) can share one run file without
// contending on a seek offset. The cursor does not own the file; the
// iterator's files list does. The run's samples are its spill-time
// boundary footer: row i is the first row of chunk i, which lets
// sampling and seek probes avoid reading the file entirely.
type runCursor struct {
	l    *keyLayout
	run  runFile
	idx  int // next chunk index to load
	cur  *vector.Chunk
	keys []byte // cur's rows encoded, once per load
	row  int

	// pool accounts the one decoded chunk (and its keys) the cursor keeps
	// resident. Accounting is best-effort: the merge is the path that
	// frees memory downstream, so a failed Reserve must not abort it — the
	// cursor then runs with its previous (possibly zero) reservation.
	pool     *buffer.Pool
	reserved int64
}

func (c *runCursor) chunk() *vector.Chunk { return c.cur }
func (c *runCursor) rowIdx() int          { return c.row }

func (c *runCursor) key() []byte {
	p := c.row * c.l.stride
	return c.keys[p : p+c.l.width]
}

func (c *runCursor) close() {
	c.cur, c.keys = nil, nil
	c.account(nil)
}

// account resizes the cursor's pool reservation to cover next (nil at
// exhaustion releases everything held).
func (c *runCursor) account(next *vector.Chunk) {
	if c.pool == nil {
		return
	}
	var n int64
	if next != nil {
		n = next.HeapBytes() + int64(next.Len()*c.l.stride)
	}
	switch {
	case n > c.reserved:
		if c.pool.Reserve(n-c.reserved) == nil {
			c.reserved = n
		}
	case n < c.reserved:
		c.pool.Release(c.reserved - n)
		c.reserved = n
	}
}

// readChunk decodes the run's i-th chunk. The length prefix is checked
// against the distance to the next recorded offset before anything is
// allocated for it: a flipped bit must read as an error, not as a 4 GiB
// request.
func (r *runFile) readChunk(i int) (*vector.Chunk, error) {
	runChunkReads.Add(1)
	off := r.offs[i]
	limit := r.size
	if i+1 < len(r.offs) {
		limit = r.offs[i+1]
	}
	var hdr [4]byte
	if _, err := r.f.ReadAt(hdr[:], off); err != nil {
		return nil, fmt.Errorf("extsort: read run: %w", err)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if n != limit-off-4 {
		return nil, fmt.Errorf("extsort: corrupt run: chunk %d claims %d bytes, its slot holds %d", i, n, limit-off-4)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(r.f, off+4, n), buf); err != nil {
		return nil, fmt.Errorf("extsort: read run chunk: %w", err)
	}
	chunk, _, err := vector.DecodeChunk(buf)
	if err != nil {
		return nil, err
	}
	return chunk, nil
}

func (c *runCursor) load() error {
	if c.idx >= len(c.run.offs) {
		c.close()
		return nil
	}
	chunk, err := c.run.readChunk(c.idx)
	if err != nil {
		return err
	}
	c.idx++
	c.cur = chunk
	c.row = 0
	if need := chunk.Len() * c.l.stride; cap(c.keys) < need {
		c.keys = make([]byte, need)
	} else {
		c.keys = c.keys[:need]
	}
	c.l.encodeChunk(c.keys, chunk, 0)
	c.account(chunk)
	return nil
}

func (c *runCursor) advance() error {
	c.row++
	if c.cur != nil && c.row >= c.cur.Len() {
		return c.load()
	}
	return nil
}

// CompareRows orders row ra of a against row rb of b under keys.
func CompareRows(a *vector.Chunk, ra int, b *vector.Chunk, rb int, keys []Key) int {
	for _, k := range keys {
		va, vb := a.Cols[k.Col], b.Cols[k.Col]
		na, nb := va.IsNull(ra), vb.IsNull(rb)
		if na || nb {
			if na && nb {
				continue
			}
			// NULL ordering is independent of Desc.
			if na {
				if k.NullsFirst {
					return -1
				}
				return 1
			}
			if k.NullsFirst {
				return 1
			}
			return -1
		}
		c := CompareValues(va, ra, vb, rb)
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// CompareValues orders the non-NULL value at row ra of a against the one
// at row rb of b (same type) ascending, doubles in the total
// types.CompareFloat order. It allocates nothing.
func CompareValues(a *vector.Vector, ra int, b *vector.Vector, rb int) int {
	switch a.Type {
	case types.Boolean:
		x, y := a.Bools[ra], b.Bools[rb]
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		default:
			return 1
		}
	case types.Integer:
		x, y := a.I32[ra], b.I32[rb]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case types.BigInt, types.Timestamp:
		x, y := a.I64[ra], b.I64[rb]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case types.Double:
		// Total FP order (NaN greatest): native < treats NaN as equal to
		// everything, which is not an ordering and would leave NaN rows
		// placed by arrival order — different at every thread count.
		return types.CompareFloat(a.F64[ra], b.F64[rb])
	case types.Varchar:
		return strings.Compare(a.Str[ra], b.Str[rb])
	default:
		return 0
	}
}
