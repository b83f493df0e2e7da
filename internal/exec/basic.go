package exec

import (
	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/types"
	"repro/internal/vector"
)

// scanOptions assembles the table-layer options for a scan node: the
// projected columns and the zone-map-eligible conjuncts of the pushed
// filter (unless the context disables skipping).
func scanOptions(ctx *Context, n *plan.ScanNode) table.ScanOptions {
	opts := table.ScanOptions{Columns: n.Columns, WithRowIDs: n.WithRowID}
	if !ctx.DisableZoneMaps {
		opts.ZoneFilters = plan.ScanZoneFilters(n)
		opts.EncodedExec = !ctx.DisableEncodedExec
	}
	return opts
}

// ---- values ----

type valuesOp struct {
	node *plan.ValuesNode
	pos  int
}

func (v *valuesOp) Open(ctx *Context) error {
	v.pos = 0
	return nil
}

func (v *valuesOp) Next(ctx *Context) (*vector.Chunk, error) {
	if v.pos >= len(v.node.Rows) {
		return nil, nil
	}
	out := vector.NewChunk(schemaTypes(v.node.Cols))
	for v.pos < len(v.node.Rows) && out.Len() < vector.ChunkCapacity {
		out.AppendRow(v.node.Rows[v.pos]...)
		v.pos++
	}
	return out, nil
}

func (v *valuesOp) Close(ctx *Context) {}

// ---- limit ----

type limitOp struct {
	child   Operator
	limit   int64
	offset  int64
	skipped int64
	emitted int64
}

func (l *limitOp) Open(ctx *Context) error {
	l.skipped, l.emitted = 0, 0
	return l.child.Open(ctx)
}

func (l *limitOp) Next(ctx *Context) (*vector.Chunk, error) {
	for {
		if l.limit >= 0 && l.emitted >= l.limit {
			return nil, nil
		}
		chunk, err := l.child.Next(ctx)
		if err != nil || chunk == nil {
			return nil, err
		}
		n := int64(chunk.Len())
		// Apply OFFSET.
		if l.skipped < l.offset {
			if l.skipped+n <= l.offset {
				l.skipped += n
				continue
			}
			drop := int(l.offset - l.skipped)
			l.skipped = l.offset
			sel := make([]int, 0, chunk.Len()-drop)
			for i := drop; i < chunk.Len(); i++ {
				sel = append(sel, i)
			}
			out := vector.NewChunk(chunk.Types())
			chunk.CompactInto(out, sel)
			chunk = out
			n = int64(chunk.Len())
		}
		if l.limit >= 0 && l.emitted+n > l.limit {
			keep := int(l.limit - l.emitted)
			sel := make([]int, keep)
			for i := range sel {
				sel[i] = i
			}
			out := vector.NewChunk(chunk.Types())
			chunk.CompactInto(out, sel)
			chunk = out
			n = int64(keep)
		}
		l.emitted += n
		return chunk, nil
	}
}

func (l *limitOp) Close(ctx *Context) { l.child.Close(ctx) }

// ---- union all ----

type unionOp struct {
	inputs []Operator
	cur    int
}

func (u *unionOp) Open(ctx *Context) error {
	u.cur = 0
	for _, in := range u.inputs {
		if err := in.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (u *unionOp) Next(ctx *Context) (*vector.Chunk, error) {
	for u.cur < len(u.inputs) {
		chunk, err := u.inputs[u.cur].Next(ctx)
		if err != nil {
			return nil, err
		}
		if chunk != nil {
			return chunk, nil
		}
		u.cur++
	}
	return nil, nil
}

func (u *unionOp) Close(ctx *Context) {
	for _, in := range u.inputs {
		in.Close(ctx)
	}
}

// ---- insert / update / delete ----

type insertOp struct {
	child Operator
	table *catalog.Table
	done  bool
	count int64
}

func (i *insertOp) Open(ctx *Context) error { return i.child.Open(ctx) }

func (i *insertOp) Next(ctx *Context) (*vector.Chunk, error) {
	if i.done {
		return nil, nil
	}
	i.done = true
	for {
		chunk, err := i.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if chunk == nil {
			break
		}
		if err := i.table.CheckNotNull(chunk); err != nil {
			return nil, err
		}
		if err := i.table.Data.Append(ctx.Txn, chunk); err != nil {
			return nil, err
		}
		if ctx.Logger != nil {
			ctx.Logger.LogInsert(ctx.Txn, i.table.Name, chunk)
		}
		i.count += int64(chunk.Len())
	}
	return countChunk(i.count), nil
}

func (i *insertOp) Close(ctx *Context) { i.child.Close(ctx) }

type updateOp struct {
	child Operator
	node  *plan.UpdateNode
	done  bool
}

func (u *updateOp) Open(ctx *Context) error { return u.child.Open(ctx) }

func (u *updateOp) Next(ctx *Context) (*vector.Chunk, error) {
	if u.done {
		return nil, nil
	}
	u.done = true
	// Materialize all (rowid, new values) pairs before touching the
	// table: the scan must not observe its own updates (Halloween
	// problem).
	var rowIDs []int64
	newVals := make([]*vector.Vector, len(u.node.SetExprs))
	for i, e := range u.node.SetExprs {
		newVals[i] = vector.New(e.Type(), 0)
	}
	ridIdx := -1
	for {
		chunk, err := u.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if chunk == nil {
			break
		}
		if ridIdx < 0 {
			ridIdx = chunk.NumCols() - 1
		}
		rid := chunk.Cols[ridIdx]
		for r := 0; r < chunk.Len(); r++ {
			rowIDs = append(rowIDs, rid.I64[r])
		}
		for i, e := range u.node.SetExprs {
			v, err := e.Eval(chunk)
			if err != nil {
				return nil, err
			}
			newVals[i].AppendRange(v, 0, chunk.Len())
		}
	}
	tbl := u.node.Table
	for i, colIdx := range u.node.SetCols {
		if err := tbl.Columns[colIdx].CheckNotNull(newVals[i], newVals[i].Len()); err != nil {
			return nil, err
		}
	}
	var count int64
	for i, colIdx := range u.node.SetCols {
		n, err := tbl.Data.Update(ctx.Txn, colIdx, rowIDs, newVals[i])
		if err != nil {
			return nil, err
		}
		if ctx.Logger != nil {
			ctx.Logger.LogUpdate(ctx.Txn, tbl.Name, colIdx, rowIDs, newVals[i])
		}
		count = n
	}
	if len(u.node.SetCols) == 0 {
		count = 0
	}
	return countChunk(count), nil
}

func (u *updateOp) Close(ctx *Context) { u.child.Close(ctx) }

type deleteOp struct {
	child Operator
	table *catalog.Table
	done  bool
}

func (d *deleteOp) Open(ctx *Context) error { return d.child.Open(ctx) }

func (d *deleteOp) Next(ctx *Context) (*vector.Chunk, error) {
	if d.done {
		return nil, nil
	}
	d.done = true
	var rowIDs []int64
	for {
		chunk, err := d.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if chunk == nil {
			break
		}
		rid := chunk.Cols[chunk.NumCols()-1]
		for r := 0; r < chunk.Len(); r++ {
			rowIDs = append(rowIDs, rid.I64[r])
		}
	}
	count, err := d.table.Data.Delete(ctx.Txn, rowIDs)
	if err != nil {
		return nil, err
	}
	if ctx.Logger != nil && len(rowIDs) > 0 {
		ctx.Logger.LogDelete(ctx.Txn, d.table.Name, rowIDs)
	}
	return countChunk(count), nil
}

func (d *deleteOp) Close(ctx *Context) { d.child.Close(ctx) }

func countChunk(n int64) *vector.Chunk {
	out := vector.NewChunk([]types.Type{types.BigInt})
	out.AppendRow(types.NewBigInt(n))
	return out
}
