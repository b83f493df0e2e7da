package exec

import (
	"repro/internal/expr"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/vector"
)

// mergeJoinOp is the out-of-core sort-merge equi-join (inner only): it
// merges two sortedStreams, each side's rows laid out by sortLayout and
// ordered on the join keys — ascending, NULLs last — then by position.
// Peak memory is bounded by the sort budget instead of the build side's
// size: the cooperative fallback of §4. The right stream comes finished
// from a hash build that handed over (hashJoinOp.build); the left one
// sorts on the first Next.
type mergeJoinOp struct {
	left, right *sortedStream

	lCur, rCur mergeCursor
	// groupSrcs/groupRows pick the right rows of the current key group.
	groupSrcs []*vector.Chunk
	groupRows []int32
	em        joinEmitter
	enqueue   func(*vector.Chunk) error // the emitter's sink: append to queue
	queue     []*vector.Chunk
	done      bool
}

// newJoinSort is one side of the merge join: src's rows sorted on keys,
// booked into the join's profile slot.
func newJoinSort(src source, side plan.Node, keys []expr.Expr, slot *OpProfile) *sortedStream {
	sortKeys := make([]plan.SortKey, len(keys))
	for i, k := range keys {
		sortKeys[i] = plan.SortKey{Expr: k}
	}
	extTypes, layout, extend := sortLayout(schemaTypes(side.Schema()), sortKeys)
	return &sortedStream{
		src: src, slot: slot,
		extTypes: extTypes, keys: layout, rangeKeys: layout, extend: extend,
		cursor: newChunkCursor,
	}
}

// newMergeJoin joins the left source, sorted here, with the right
// side's sorted stream.
func newMergeJoin(left source, right *sortedStream, n *plan.JoinNode, slot *OpProfile) *mergeJoinOp {
	m := &mergeJoinOp{left: newJoinSort(left, n.Left, n.LeftKeys, slot), right: right, em: newJoinEmitter(n)}
	m.lCur.keys, m.rCur.keys = m.left.keys[:len(n.LeftKeys)], right.keys[:len(n.RightKeys)]
	m.enqueue = func(c *vector.Chunk) error {
		m.queue = append(m.queue, c)
		return nil
	}
	return m
}

// Open starts both cursors; the left side's sort runs here.
func (m *mergeJoinOp) Open(ctx *Context) error {
	m.lCur.next = func() (*vector.Chunk, error) { return m.left.Next(ctx) }
	m.rCur.next = func() (*vector.Chunk, error) { return m.right.Next(ctx) }
	if err := m.lCur.loadIfNeeded(); err != nil {
		return err
	}
	return m.rCur.loadIfNeeded()
}

// mergeCursor walks one side's sorted rows; keys are its join keys in
// the sort layout.
type mergeCursor struct {
	next  func() (*vector.Chunk, error)
	keys  []extsort.Key
	chunk *vector.Chunk
	row   int
}

func (c *mergeCursor) loadIfNeeded() error {
	for c.chunk == nil || c.row >= c.chunk.Len() {
		var err error
		if c.chunk, err = c.next(); err != nil || c.chunk == nil {
			return err
		}
		c.row = 0
	}
	return nil
}

func (c *mergeCursor) exhausted() bool { return c.chunk == nil }

func (c *mergeCursor) advance() error {
	c.row++
	return c.loadIfNeeded()
}

// nullKey reports whether the current row has a NULL key: it never
// joins.
func (c *mergeCursor) nullKey() bool {
	for _, k := range c.keys {
		if c.chunk.Cols[k.Col].IsNull(c.row) {
			return true
		}
	}
	return false
}

// compare orders the current row's keys, none of them NULL, against
// row r's of the sorted chunk kc under keys.
func (c *mergeCursor) compare(kc *vector.Chunk, r int, keys []extsort.Key) int {
	for i, k := range c.keys {
		if d := extsort.CompareValues(c.chunk.Cols[k.Col], c.row, kc.Cols[keys[i].Col], r); d != 0 {
			return d
		}
	}
	return 0
}

// sameKey reports whether the cursor is on a row whose keys equal row
// r's of the sorted chunk kc under keys.
func (c *mergeCursor) sameKey(kc *vector.Chunk, r int, keys []extsort.Key) bool {
	return !c.exhausted() && !c.nullKey() && c.compare(kc, r, keys) == 0
}

func (m *mergeJoinOp) Next(ctx *Context) (*vector.Chunk, error) {
	for len(m.queue) == 0 {
		if m.done {
			return nil, nil
		}
		if err := m.step(); err != nil {
			return nil, err
		}
	}
	out := m.queue[0]
	m.queue = m.queue[1:]
	return out, nil
}

// step advances the merge by one key group; at the end it flushes the
// last left chunk's output.
func (m *mergeJoinOp) step() error {
	for {
		if m.lCur.exhausted() || m.rCur.exhausted() {
			m.done = true
			return m.em.finish()
		}
		var err error
		switch {
		case m.lCur.nullKey():
			err = m.lCur.advance()
		case m.rCur.nullKey():
			err = m.rCur.advance()
		default:
			c := m.lCur.compare(m.rCur.chunk, m.rCur.row, m.rCur.keys)
			if c == 0 {
				return m.emitGroup()
			}
			if c < 0 {
				err = m.lCur.advance()
			} else {
				err = m.rCur.advance()
			}
		}
		if err != nil {
			return err
		}
	}
}

// emitGroup collects the right rows equal to the current key — as
// picks into the sorted right chunks, which outlive the cursor — then
// pairs every left row of that key with them through the emitter. The
// emitter's probe chunk is the sorted left chunk, not the group: output
// goes out at ChunkCapacity candidates or when the left cursor moves on
// to its next chunk, never as one chunk per key group.
func (m *mergeJoinOp) emitGroup() error {
	// The key is the left cursor's current row; its chunk survives
	// advancing.
	keyChunk, keyRow, keys := m.lCur.chunk, m.lCur.row, m.lCur.keys

	clear(m.groupSrcs) // let the previous group's chunks go
	m.groupSrcs, m.groupRows = m.groupSrcs[:0], m.groupRows[:0]
	for m.rCur.sameKey(keyChunk, keyRow, keys) {
		m.groupSrcs = append(m.groupSrcs, m.rCur.chunk)
		m.groupRows = append(m.groupRows, int32(m.rCur.row))
		if err := m.rCur.advance(); err != nil {
			return err
		}
	}

	for m.lCur.sameKey(keyChunk, keyRow, keys) {
		if m.lCur.chunk != m.em.probe {
			// A new sorted left chunk: the previous one's output goes out.
			if err := m.em.finish(); err != nil {
				return err
			}
			m.em.begin(m.lCur.chunk, m.enqueue)
		}
		for i, src := range m.groupSrcs {
			if err := m.em.add(m.lCur.row, src, int(m.groupRows[i])); err != nil {
				return err
			}
		}
		if err := m.lCur.advance(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the left sorted stream with the left child it replaced
// as the join's probe source, and the right side's sort; the join closes
// its right child.
func (m *mergeJoinOp) Close(ctx *Context) {
	m.left.Close(ctx)
	m.right.closeSort(ctx)
}
