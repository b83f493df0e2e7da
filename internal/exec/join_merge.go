package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/vector"
)

// mergeJoinOp is the out-of-core sort-merge equi-join (inner only): both
// inputs are extended with their key columns, sorted externally (runs
// spill to disk beyond the budget), and merged. Peak memory is bounded
// by the sort budget instead of the build side's size — the cooperative
// fallback of §4.
type mergeJoinOp struct {
	left, right Operator
	node        *plan.JoinNode
	prefetched  []*vector.Chunk // right chunks already pulled by an over-budget hash build
	opened      bool            // that build left both children open

	nl, nr, nk int

	lIter, rIter *extsort.Iterator
	lCur, rCur   *mergeCursor
	// groupSrcs/groupRows pick the right rows of the current key group.
	groupSrcs []*vector.Chunk
	groupRows []int32
	em        joinEmitter
	enqueue   func(*vector.Chunk) error // the emitter's sink: append to queue
	queue     []*vector.Chunk
	done      bool
}

func newMergeJoin(left, right Operator, n *plan.JoinNode, prefetched []*vector.Chunk) *mergeJoinOp {
	return &mergeJoinOp{left: left, right: right, node: n, prefetched: prefetched}
}

func (m *mergeJoinOp) Open(ctx *Context) error {
	if m.node.Type == plan.JoinLeft {
		return fmt.Errorf("exec: merge join does not support LEFT joins")
	}
	m.nl = len(m.node.Left.Schema())
	m.nr = len(m.node.Right.Schema())
	m.nk = len(m.node.LeftKeys)
	m.em = newJoinEmitter(m.node)
	m.enqueue = func(c *vector.Chunk) error {
		m.queue = append(m.queue, c)
		return nil
	}

	var err error
	if m.rIter, err = m.sortSide(ctx, m.right, m.node.Right, m.node.RightKeys, m.prefetched); err != nil {
		return err
	}
	m.prefetched = nil
	if m.lIter, err = m.sortSide(ctx, m.left, m.node.Left, m.node.LeftKeys, nil); err != nil {
		return err
	}
	m.lCur, m.rCur = &mergeCursor{iter: m.lIter}, &mergeCursor{iter: m.rIter}
	if err := m.lCur.loadIfNeeded(); err != nil {
		return err
	}
	return m.rCur.loadIfNeeded()
}

// sortSide sorts one input externally on its key columns, which are
// appended after the payload columns: first the chunks an over-budget
// hash build already pulled, then whatever the child still yields —
// opened here unless that build left it open.
func (m *mergeJoinOp) sortSide(ctx *Context, child Operator, side plan.Node, keyExprs []expr.Expr, prefetched []*vector.Chunk) (*extsort.Iterator, error) {
	colTypes := schemaTypes(side.Schema())
	keys := make([]extsort.Key, len(keyExprs))
	for i, k := range keyExprs {
		keys[i] = extsort.Key{Col: len(colTypes)}
		colTypes = append(colTypes, k.Type())
	}
	sorter := extsort.NewSorter(colTypes, keys, ctx.sortBudget(), ctx.TmpDir)
	if ctx.Pool != nil {
		sorter.SetPool(ctx.Pool)
	}
	feed := func(chunk *vector.Chunk) error {
		ext, err := extendWithKeys(chunk, keyExprs)
		if err != nil {
			return err
		}
		return sorter.Add(ext)
	}
	for _, chunk := range prefetched {
		if err := feed(chunk); err != nil {
			return nil, err
		}
	}
	if !m.opened {
		if err := child.Open(ctx); err != nil {
			return nil, err
		}
	}
	if err := drain(ctx, child, feed); err != nil {
		return nil, err
	}
	return sorter.Finish()
}

// drain feeds every remaining chunk of an already-open operator to fn.
func drain(ctx *Context, op Operator, fn func(*vector.Chunk) error) error {
	for {
		chunk, err := op.Next(ctx)
		if err != nil {
			return err
		}
		if chunk == nil {
			return nil
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
}

// extendWithKeys appends the evaluated key columns to the chunk.
func extendWithKeys(chunk *vector.Chunk, keys []expr.Expr) (*vector.Chunk, error) {
	out := &vector.Chunk{Cols: make([]*vector.Vector, 0, len(chunk.Cols)+len(keys))}
	out.Cols = append(out.Cols, chunk.Cols...)
	for _, k := range keys {
		v, err := k.Eval(chunk)
		if err != nil {
			return nil, err
		}
		out.Cols = append(out.Cols, v)
	}
	out.SetLen(chunk.Len())
	return out, nil
}

type mergeCursor struct {
	iter  *extsort.Iterator
	chunk *vector.Chunk
	row   int
}

func (c *mergeCursor) loadIfNeeded() error {
	for c.chunk == nil || c.row >= c.chunk.Len() {
		next, err := c.iter.Next()
		if err != nil {
			return err
		}
		if next == nil {
			c.chunk = nil
			return nil
		}
		c.chunk = next
		c.row = 0
	}
	return nil
}

func (c *mergeCursor) exhausted() bool { return c.chunk == nil }

func (c *mergeCursor) advance() error {
	c.row++
	return c.loadIfNeeded()
}

// compareCursors compares the current keys of the two sides. Keys
// occupy the trailing nk columns on both sides.
func (m *mergeJoinOp) compareCursors() int {
	for i := 0; i < m.nk; i++ {
		lv := m.lCur.chunk.Cols[m.nl+i]
		rv := m.rCur.chunk.Cols[m.nr+i]
		ln, rn := lv.IsNull(m.lCur.row), rv.IsNull(m.rCur.row)
		if ln || rn {
			// NULL keys never join; order NULLs last so they drain.
			if ln && rn {
				continue
			}
			if ln {
				return 1
			}
			return -1
		}
		if c := extsort.CompareValues(lv, m.lCur.row, rv, m.rCur.row); c != 0 {
			return c
		}
	}
	return 0
}

func anyNull(vecs []*vector.Vector, r int) bool {
	for _, v := range vecs {
		if v.IsNull(r) {
			return true
		}
	}
	return false
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

// step advances the merge by one key group.
func (m *mergeJoinOp) step() error {
	for {
		if m.lCur.exhausted() || m.rCur.exhausted() {
			m.done = true
			return nil
		}
		if anyNull(m.lCur.chunk.Cols[m.nl:], m.lCur.row) { // NULL keys never match
			if err := m.lCur.advance(); err != nil {
				return err
			}
			continue
		}
		if anyNull(m.rCur.chunk.Cols[m.nr:], m.rCur.row) {
			if err := m.rCur.advance(); err != nil {
				return err
			}
			continue
		}
		c := m.compareCursors()
		switch {
		case c < 0:
			if err := m.lCur.advance(); err != nil {
				return err
			}
		case c > 0:
			if err := m.rCur.advance(); err != nil {
				return err
			}
		default:
			return m.emitGroup()
		}
	}
}

// emitGroup collects the right rows equal to the current key — as
// picks into the sorted right chunks, which outlive the cursor — then
// pairs every left row of that key with them through the emitter.
func (m *mergeJoinOp) emitGroup() error {
	// The key is the left cursor's current row; its chunk survives
	// advancing.
	keyChunk, keyRow := m.lCur.chunk, m.lCur.row
	sameKey := func(c *mergeCursor, payloadCols int) bool {
		if c.exhausted() {
			return false
		}
		for i := 0; i < m.nk; i++ {
			col := c.chunk.Cols[payloadCols+i]
			if col.IsNull(c.row) || extsort.CompareValues(col, c.row, keyChunk.Cols[m.nl+i], keyRow) != 0 {
				return false
			}
		}
		return true
	}

	clear(m.groupSrcs) // let the previous group's chunks go
	m.groupSrcs, m.groupRows = m.groupSrcs[:0], m.groupRows[:0]
	for sameKey(m.rCur, m.nr) {
		m.groupSrcs = append(m.groupSrcs, m.rCur.chunk)
		m.groupRows = append(m.groupRows, int32(m.rCur.row))
		if err := m.rCur.advance(); err != nil {
			return err
		}
	}

	m.em.begin(m.lCur.chunk, m.enqueue)
	for sameKey(m.lCur, m.nl) {
		if m.lCur.chunk != m.em.probe {
			// The group runs on into the next sorted left chunk.
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
	return m.em.finish()
}

func (m *mergeJoinOp) Close(ctx *Context) {
	for _, iter := range []*extsort.Iterator{m.lIter, m.rIter} {
		if iter != nil {
			recordSortKeys(ctx, m.node, iter)
			iter.Close()
		}
	}
	m.lIter, m.rIter = nil, nil
	m.left.Close(ctx)
	m.right.Close(ctx)
}
