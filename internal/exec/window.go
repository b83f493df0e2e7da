package exec

import (
	"fmt"

	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// The window operator evaluates fn(...) OVER (PARTITION BY ... ORDER BY
// ... [frame]) in three phases sharing one total order:
//
//  1. Extend: every input row is widened with its evaluated partition
//     keys, order keys and a hidden packed (chunk, row) position, then
//     fed to the external sorter keyed by (partition, order, position).
//     The hidden position makes the sort a total order, so the sorted
//     stream — and with it every downstream value — is bit-identical at
//     every thread count. The phase runs on the source's workers with
//     one sorter per worker (splitting the sort budget, like ORDER BY)
//     and k-way merges all runs.
//  2. Cut: the merged stream is split into partitions wherever the
//     partition keys change.
//  3. Evaluate: every function is computed over a partition as soon as
//     it is cut, and the partition leaves as the payload plus the new
//     columns in ChunkCapacity slices.
//
// Cutting and evaluation run where the merge runs (partitionCutCursor):
// on the range workers of a partitioned merge, else on the caller.
// Output order is (partition keys, order keys, input position) at every
// thread count.

// windowLayout fixes the column layout of the extended sort rows:
// payload columns first, then partition keys, order keys and the hidden
// position column.
type windowLayout struct {
	np  int // payload (child schema) columns
	npk int // partition key columns
	nok int // order key columns
}

func layoutOf(n *plan.WindowNode) windowLayout {
	return windowLayout{np: len(n.Child.Schema()), npk: len(n.PartitionBy), nok: len(n.OrderBy)}
}

// extTypes returns the extended row schema fed to the sorter.
func (l windowLayout) extTypes(n *plan.WindowNode) []types.Type {
	out := make([]types.Type, 0, l.np+l.npk+l.nok+1)
	out = append(out, schemaTypes(n.Child.Schema())...)
	for _, e := range n.PartitionBy {
		out = append(out, e.Type())
	}
	for _, k := range n.OrderBy {
		out = append(out, k.Expr.Type())
	}
	return append(out, types.BigInt)
}

// sortKeys orders rows by partition (NULLs grouped first), then the
// user's order keys, then the hidden input position.
func (l windowLayout) sortKeys(n *plan.WindowNode) []extsort.Key {
	keys := make([]extsort.Key, 0, l.npk+l.nok+1)
	for i := 0; i < l.npk; i++ {
		keys = append(keys, extsort.Key{Col: l.np + i, NullsFirst: true})
	}
	for i, k := range n.OrderBy {
		keys = append(keys, extsort.Key{Col: l.np + l.npk + i, Desc: k.Desc, NullsFirst: k.NullsFirst})
	}
	return append(keys, extsort.Key{Col: l.np + l.npk + l.nok})
}

// partKeys compares rows on the partition columns only.
func (l windowLayout) partKeys() []extsort.Key {
	keys := make([]extsort.Key, l.npk)
	for i := range keys {
		keys[i] = extsort.Key{Col: l.np + i, NullsFirst: true}
	}
	return keys
}

// windowOp is the window operator: a sortedStream over the extended
// layout, ordered by (partition, order, position), whose cursor cuts
// every merge range into partitions and evaluates them.
//
// With threads > 1 and a PARTITION BY, the merge phase itself
// partitions: key ranges snapped to partition-key boundaries are merged,
// cut and evaluated by N workers concurrently, and the stream re-emits
// them in order. Otherwise the one range is the serial merge, cut and
// evaluated on the caller.
type windowOp struct {
	sortedStream
}

func newWindowOp(src source, n *plan.WindowNode) *windowOp {
	lay := layoutOf(n)
	outTypes := append([]types.Type(nil), schemaTypes(n.Child.Schema())...)
	for _, f := range n.Funcs {
		outTypes = append(outTypes, f.Type)
	}
	return &windowOp{sortedStream{
		src: src, node: n,
		extTypes: lay.extTypes(n), keys: lay.sortKeys(n), rangeKeys: lay.partKeys(),
		extend: func(seq int, chunk *vector.Chunk) (*vector.Chunk, error) {
			return lay.extend(n, chunk, seq)
		},
		cursor: func(part *extsort.Iterator) rangeCursor {
			return &partitionCutCursor{node: n, lay: lay, partKeys: lay.partKeys(), outTypes: outTypes, in: part}
		},
	}}
}

// extend widens a chunk with the evaluated partition keys, order keys
// and the hidden packed (seq, row) position.
func (l windowLayout) extend(n *plan.WindowNode, chunk *vector.Chunk, seq int) (*vector.Chunk, error) {
	cols := make([]*vector.Vector, 0, l.np+l.npk+l.nok+1)
	cols = append(cols, chunk.Cols...)
	for _, e := range n.PartitionBy {
		v, err := e.Eval(chunk)
		if err != nil {
			return nil, err
		}
		cols = append(cols, v)
	}
	for _, k := range n.OrderBy {
		v, err := k.Expr.Eval(chunk)
		if err != nil {
			return nil, err
		}
		cols = append(cols, v)
	}
	cols = append(cols, positionColumn(seq, chunk.Len()))
	ext := &vector.Chunk{Cols: cols}
	ext.SetLen(chunk.Len())
	return ext, nil
}

// partitionCutCursor is the window's rangeCursor — one per range of the
// partitioned merge, run on the scheduler, or one over the serial merge,
// run on the caller. It splits its sorted (partition, order, position)
// chunk stream into partitions: runs of rows equal on the partition keys
// are contiguous in sorted input, so it bulk-copies each run and cuts
// whenever the keys change (range boundaries snap to partition-key
// boundaries, so no partition straddles two ranges). Each Next feeds
// merged chunks in until at least one partition has been cut and
// evaluated, and returns the output slices queued so far as one batch.
type partitionCutCursor struct {
	node     *plan.WindowNode
	lay      windowLayout
	partKeys []extsort.Key
	outTypes []types.Type
	in       *extsort.Iterator

	part    *vector.Chunk // partition under accumulation
	prev    *vector.Chunk // chunk/row of the previously appended row
	prevRow int
	queue   []*vector.Chunk // output slices of evaluated partitions
	done    bool
}

// feed cuts one sorted chunk, evaluating every partition it completes.
func (pc *partitionCutCursor) feed(c *vector.Chunk) error {
	n := c.Len()
	pos := 0
	for pos < n {
		if pc.part != nil && pc.lay.npk > 0 &&
			extsort.CompareRows(pc.prev, pc.prevRow, c, pos, pc.partKeys) != 0 {
			if err := pc.flush(); err != nil {
				return err
			}
		}
		// Extend the run of rows sharing this row's partition and
		// bulk-copy it.
		end := pos + 1
		if pc.lay.npk > 0 {
			for end < n && extsort.CompareRows(c, end-1, c, end, pc.partKeys) == 0 {
				end++
			}
		} else {
			end = n
		}
		if pc.part == nil {
			pc.part = vector.NewChunk(c.Types())
		}
		for ci, col := range pc.part.Cols {
			col.AppendRange(c.Cols[ci], pos, end-pos)
		}
		pc.part.SetLen(pc.part.Cols[0].Len())
		pc.prev, pc.prevRow = c, end-1
		pos = end
	}
	return nil
}

// flush evaluates the partition under accumulation, if any.
func (pc *partitionCutCursor) flush() error {
	part := pc.part
	pc.part = nil
	if part == nil {
		return nil
	}
	return pc.evaluate(part)
}

// evaluate computes every window function over one cut partition and
// queues the payload plus the results, sliced back to engine-sized
// chunks.
func (pc *partitionCutCursor) evaluate(part *vector.Chunk) error {
	outs, err := evalWindowPartition(pc.node, pc.lay, part)
	if err != nil {
		return err
	}
	n := part.Len()
	for base := 0; base < n; base += vector.ChunkCapacity {
		m := min(n-base, vector.ChunkCapacity)
		out := vector.NewChunk(pc.outTypes)
		for c := 0; c < pc.lay.np; c++ {
			out.Cols[c].AppendRange(part.Cols[c], base, m)
		}
		for j, ov := range outs {
			out.Cols[pc.lay.np+j].AppendRange(ov, base, m)
		}
		out.SetLen(m)
		pc.queue = append(pc.queue, out)
	}
	return nil
}

func (pc *partitionCutCursor) Next() ([]*vector.Chunk, error) {
	for len(pc.queue) == 0 && !pc.done {
		c, err := pc.in.Next()
		if err != nil {
			return nil, err
		}
		if c == nil {
			pc.done = true
			err = pc.flush()
		} else {
			err = pc.feed(c)
		}
		if err != nil {
			return nil, err
		}
	}
	b := pc.queue
	pc.queue = nil
	return b, nil
}

// ---- per-partition evaluation ----

// evalWindowPartition computes every window function over one partition
// (rows already in (order keys, input position) order), returning one
// result vector per function. DOUBLE sums fold left to right from the
// partition start.
func evalWindowPartition(node *plan.WindowNode, lay windowLayout, part *vector.Chunk) ([]*vector.Vector, error) {
	n := part.Len()
	peerStart, peerEnd, dense := peerGroups(part, lay, n)

	outs := make([]*vector.Vector, len(node.Funcs))
	for j, f := range node.Funcs {
		var arg *vector.Vector
		if f.Arg != nil {
			// Args only reference the payload prefix of the partition.
			v, err := f.Arg.Eval(part)
			if err != nil {
				return nil, err
			}
			arg = v
		}
		switch f.Func {
		case "row_number":
			out := vector.NewLen(types.BigInt, n)
			for i := range n {
				out.I64[i] = int64(i) + 1
			}
			outs[j] = out
		case "rank":
			out := vector.NewLen(types.BigInt, n)
			for i := range n {
				out.I64[i] = int64(peerStart[i]) + 1
			}
			outs[j] = out
		case "dense_rank":
			out := vector.NewLen(types.BigInt, n)
			copy(out.I64, dense)
			outs[j] = out
		case "lag", "lead":
			outs[j] = evalShift(f, arg, n)
		case "count", "sum", "avg", "min", "max":
			bounds, growing := node.Frame.Bounds(n, peerStart, peerEnd, lay.nok > 0)
			outs[j] = evalFrameAgg(f, arg, n, bounds, growing)
		default:
			return nil, fmt.Errorf("exec: unknown window function %q", f.Func)
		}
	}
	return outs, nil
}

// peerGroups computes, for every row of the partition, the first and
// last index of its ORDER BY peer group and its dense rank. Without
// order keys the whole partition is one peer group.
func peerGroups(part *vector.Chunk, lay windowLayout, n int) (peerStart, peerEnd []int, dense []int64) {
	peerStart = make([]int, n)
	peerEnd = make([]int, n)
	dense = make([]int64, n)
	if lay.nok == 0 {
		for i := 0; i < n; i++ {
			peerEnd[i] = n - 1
			dense[i] = 1
		}
		return
	}
	ordKeys := make([]extsort.Key, lay.nok)
	for i := range ordKeys {
		ordKeys[i] = extsort.Key{Col: lay.np + lay.npk + i}
	}
	groupStart := 0
	rank := int64(1)
	for i := 0; i < n; i++ {
		if i > 0 && extsort.CompareRows(part, i-1, part, i, ordKeys) != 0 {
			for k := groupStart; k < i; k++ {
				peerEnd[k] = i - 1
			}
			groupStart = i
			rank++
		}
		peerStart[i] = groupStart
		dense[i] = rank
	}
	for k := groupStart; k < n; k++ {
		peerEnd[k] = n - 1
	}
	return
}

// evalShift computes lag/lead over a partition of n rows.
func evalShift(f plan.WindowFunc, arg *vector.Vector, n int) *vector.Vector {
	out := vector.NewLen(f.Type, n)
	off := int(f.Offset)
	if f.Func == "lag" {
		off = -off
	}
	for i := range n {
		j := i + off
		if j < 0 || j >= n {
			out.Set(i, f.Default)
			continue
		}
		if arg.IsNull(j) {
			out.SetNull(i)
			continue
		}
		if arg.Type == f.Type {
			out.SetFrom(i, arg, j)
		} else { // NULL-typed argument: every row is NULL, unreachable
			out.Set(i, arg.Get(j))
		}
	}
	return out
}

// frameAcc is the running state of one frame aggregate.
type frameAcc struct {
	count   int64
	sumI    int64
	sumF    float64
	best    types.Value
	bestSet bool
}

func (a *frameAcc) reset() { *a = frameAcc{} }

func (a *frameAcc) add(f *plan.WindowFunc, arg *vector.Vector, r int) {
	if arg == nil { // count(*)
		a.count++
		return
	}
	if arg.IsNull(r) {
		return
	}
	a.count++
	switch f.Func {
	case "sum", "avg":
		switch arg.Type {
		case types.Integer:
			a.sumI += int64(arg.I32[r])
		case types.BigInt, types.Timestamp:
			a.sumI += arg.I64[r]
		case types.Boolean:
			if arg.Bools[r] {
				a.sumI++
			}
		case types.Double:
			a.sumF += arg.F64[r]
		}
	case "min", "max":
		v := arg.Get(r)
		if !a.bestSet {
			a.best, a.bestSet = v, true
			return
		}
		c := types.Compare(v, a.best)
		if (f.Func == "max" && c > 0) || (f.Func == "min" && c < 0) {
			a.best = v
		}
	}
}

func (a *frameAcc) finish(f *plan.WindowFunc, arg *vector.Vector, out *vector.Vector, i int) {
	switch f.Func {
	case "count":
		out.I64[i] = a.count
	case "sum":
		if a.count == 0 {
			out.SetNull(i)
		} else if f.Type == types.Double {
			out.F64[i] = a.sumF
		} else {
			out.I64[i] = a.sumI
		}
	case "avg":
		if a.count == 0 {
			out.SetNull(i)
		} else if arg != nil && arg.Type == types.Double {
			out.F64[i] = a.sumF / float64(a.count)
		} else {
			out.F64[i] = float64(a.sumI) / float64(a.count)
		}
	case "min", "max":
		if !a.bestSet {
			out.SetNull(i)
		} else {
			out.Set(i, a.best)
		}
	}
}

// evalFrameAgg computes one aggregate over the frames of a partition's n
// rows. Growing frames accumulate incrementally left to right from the
// partition start (identical to direct iteration, including the DOUBLE
// reduction order); general frames are re-scanned per row.
func evalFrameAgg(f plan.WindowFunc, arg *vector.Vector, n int, bounds func(i int) (int, int), growing bool) *vector.Vector {
	out := vector.NewLen(f.Type, n)
	var acc frameAcc
	if growing {
		cur := 0
		for i := range n {
			_, fhi := bounds(i)
			if fhi > n-1 {
				fhi = n - 1
			}
			for cur <= fhi {
				acc.add(&f, arg, cur)
				cur++
			}
			acc.finish(&f, arg, out, i)
		}
		return out
	}
	for i := range n {
		flo, fhi := bounds(i)
		if flo < 0 {
			flo = 0
		}
		if fhi > n-1 {
			fhi = n - 1
		}
		acc.reset()
		for r := flo; r <= fhi; r++ {
			acc.add(&f, arg, r)
		}
		acc.finish(&f, arg, out, i)
	}
	return out
}
