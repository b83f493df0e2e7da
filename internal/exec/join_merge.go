package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/types"
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
	prefetched  []*vector.Chunk // right chunks already pulled by a failed hash build
	rightOpen   bool            // right child is already open (fallback path)

	nl, nr   int
	nk       int
	outTypes []types.Type

	lIter, rIter *extsort.Iterator
	lCur, rCur   *mergeCursor
	rGroup       []*vector.Chunk // buffered right group with current key
	rGroupRows   int
	queue        []*vector.Chunk
	done         bool
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
	m.outTypes = schemaTypes(m.node.Schema())

	budget := ctx.sortBudget()
	keys := make([]extsort.Key, m.nk)
	keyTypes := make([]types.Type, m.nk)
	for i, k := range m.node.LeftKeys {
		keyTypes[i] = k.Type()
	}

	// Sort the right side (keys appended after the payload columns).
	rTypes := append(schemaTypes(m.node.Right.Schema()), keyTypes...)
	for i := range keys {
		keys[i] = extsort.Key{Col: m.nr + i}
	}
	rSorter := extsort.NewSorter(rTypes, keys, budget, ctx.TmpDir)
	if ctx.Pool != nil {
		rSorter.SetPool(ctx.Pool)
	}
	feed := func(chunk *vector.Chunk) error {
		ext, err := extendWithKeys(chunk, m.node.RightKeys)
		if err != nil {
			return err
		}
		return rSorter.Add(ext)
	}
	for _, chunk := range m.prefetched {
		if err := feed(chunk); err != nil {
			return err
		}
	}
	m.prefetched = nil
	if m.rightOpen {
		// Fallback from a failed hash build: the right child is already
		// open and partially drained; continue where it stopped.
		if err := drain(ctx, m.right, feed); err != nil {
			return err
		}
	} else if err := openAndDrain(ctx, m.right, feed); err != nil {
		return err
	}
	rIter, err := rSorter.Finish()
	if err != nil {
		return err
	}
	m.rIter = rIter

	// Sort the left side.
	lTypes := append(schemaTypes(m.node.Left.Schema()), keyTypes...)
	lKeys := make([]extsort.Key, m.nk)
	for i := range lKeys {
		lKeys[i] = extsort.Key{Col: m.nl + i}
	}
	lSorter := extsort.NewSorter(lTypes, lKeys, budget, ctx.TmpDir)
	if ctx.Pool != nil {
		lSorter.SetPool(ctx.Pool)
	}
	if err := openAndDrain(ctx, m.left, func(chunk *vector.Chunk) error {
		ext, err := extendWithKeys(chunk, m.node.LeftKeys)
		if err != nil {
			return err
		}
		return lSorter.Add(ext)
	}); err != nil {
		return err
	}
	lIter, err := lSorter.Finish()
	if err != nil {
		return err
	}
	m.lIter = lIter

	m.lCur = &mergeCursor{iter: m.lIter}
	m.rCur = &mergeCursor{iter: m.rIter}
	if err := m.lCur.init(); err != nil {
		return err
	}
	return m.rCur.init()
}

// openAndDrain opens op and feeds every chunk to fn.
func openAndDrain(ctx *Context, op Operator, fn func(*vector.Chunk) error) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	return drain(ctx, op, fn)
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

func (c *mergeCursor) init() error { return c.loadIfNeeded() }

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

// keysAreNull reports whether any key of the cursor's current row is
// NULL (such rows never match).
func keysAreNull(c *mergeCursor, payloadCols, nk int) bool {
	for i := 0; i < nk; i++ {
		if c.chunk.Cols[payloadCols+i].IsNull(c.row) {
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
		if keysAreNull(m.lCur, m.nl, m.nk) {
			if err := m.lCur.advance(); err != nil {
				return err
			}
			continue
		}
		if keysAreNull(m.rCur, m.nr, m.nk) {
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

// emitGroup collects the right rows equal to the current key, then
// streams left rows with that key against them.
func (m *mergeJoinOp) emitGroup() error {
	// Snapshot the key from the left cursor (values survive advancing).
	keyVals := make([]types.Value, m.nk)
	for i := 0; i < m.nk; i++ {
		keyVals[i] = m.lCur.chunk.Cols[m.nl+i].Get(m.lCur.row)
	}
	sameKey := func(c *mergeCursor, payloadCols int) bool {
		if c.exhausted() {
			return false
		}
		for i := 0; i < m.nk; i++ {
			col := c.chunk.Cols[payloadCols+i]
			if col.IsNull(c.row) {
				return false
			}
			if types.Compare(col.Get(c.row), keyVals[i]) != 0 {
				return false
			}
		}
		return true
	}

	// Buffer the right group (bounded by key-group size).
	rTypes := make([]types.Type, m.nr)
	for i := 0; i < m.nr; i++ {
		rTypes[i] = m.rCur.chunk.Cols[i].Type
	}
	group := vector.NewChunk(rTypes)
	var groups []*vector.Chunk
	for sameKey(m.rCur, m.nr) {
		row := group.Len()
		group.SetLen(row + 1)
		for ci := 0; ci < m.nr; ci++ {
			if m.rCur.chunk.Cols[ci].IsNull(m.rCur.row) {
				group.Cols[ci].SetNull(row)
			} else {
				group.Cols[ci].Set(row, m.rCur.chunk.Cols[ci].Get(m.rCur.row))
			}
		}
		if group.Len() == vector.ChunkCapacity {
			groups = append(groups, group)
			group = vector.NewChunk(rTypes)
		}
		if err := m.rCur.advance(); err != nil {
			return err
		}
	}
	if group.Len() > 0 {
		groups = append(groups, group)
	}

	out := vector.NewChunk(m.outTypes)
	for sameKey(m.lCur, m.nl) {
		for _, g := range groups {
			for gr := 0; gr < g.Len(); gr++ {
				row := out.Len()
				out.SetLen(row + 1)
				for c := 0; c < m.nl; c++ {
					if m.lCur.chunk.Cols[c].IsNull(m.lCur.row) {
						out.Cols[c].SetNull(row)
					} else {
						out.Cols[c].Set(row, m.lCur.chunk.Cols[c].Get(m.lCur.row))
					}
				}
				for c := 0; c < m.nr; c++ {
					if g.Cols[c].IsNull(gr) {
						out.Cols[m.nl+c].SetNull(row)
					} else {
						out.Cols[m.nl+c].Set(row, g.Cols[c].Get(gr))
					}
				}
				if out.Len() == vector.ChunkCapacity {
					if err := m.flushFiltered(out); err != nil {
						return err
					}
					out = vector.NewChunk(m.outTypes)
				}
			}
		}
		if err := m.lCur.advance(); err != nil {
			return err
		}
	}
	return m.flushFiltered(out)
}

func (m *mergeJoinOp) flushFiltered(out *vector.Chunk) error {
	if out.Len() == 0 {
		return nil
	}
	if m.node.Extra != nil {
		mask, err := m.node.Extra.Eval(out)
		if err != nil {
			return err
		}
		sel := expr.SelectTrue(mask, nil)
		if len(sel) == 0 {
			return nil
		}
		if len(sel) < out.Len() {
			filtered := vector.NewChunk(m.outTypes)
			out.CompactInto(filtered, sel)
			out = filtered
		}
	}
	m.queue = append(m.queue, out)
	return nil
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
