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
//     partition keys change (windowPartitionOp emits one chunk per
//     partition).
//  3. Evaluate: windowEvalStage computes every function over one
//     partition and emits the payload plus the new columns. The stage
//     runs on an exchange: with several workers partitions are
//     evaluated concurrently and the exchange's reorder-merge re-emits
//     them in partition order.
//
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

// partitionCutter splits a sorted (partition, order, position) chunk
// stream into one chunk per partition: runs of rows equal on the
// partition keys are contiguous in sorted input, so the cutter
// bulk-copies each run and emits whenever the keys change. It is used
// on the consumer thread over the serial merge and by every
// partitioned-merge worker on its own key range (range boundaries snap
// to partition-key boundaries, so no partition straddles two workers).
type partitionCutter struct {
	partKeys []extsort.Key
	npk      int

	part    *vector.Chunk // partition under accumulation
	prev    *vector.Chunk // chunk/row of the previously appended row
	prevRow int
}

func newPartitionCutter(lay windowLayout) *partitionCutter {
	return &partitionCutter{partKeys: lay.partKeys(), npk: lay.npk}
}

// feed cuts one sorted chunk, emitting every partition it completes.
func (pc *partitionCutter) feed(c *vector.Chunk, emit func(*vector.Chunk) error) error {
	n := c.Len()
	pos := 0
	for pos < n {
		if pc.part != nil && pc.part.Len() > 0 && pc.npk > 0 &&
			extsort.CompareRows(pc.prev, pc.prevRow, c, pos, pc.partKeys) != 0 {
			out := pc.part
			pc.part = nil
			if err := emit(out); err != nil {
				return err
			}
		}
		// Extend the run of rows sharing this row's partition and
		// bulk-copy it.
		end := pos + 1
		if pc.npk > 0 {
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

// flush emits the final partition, if any.
func (pc *partitionCutter) flush(emit func(*vector.Chunk) error) error {
	if pc.part == nil || pc.part.Len() == 0 {
		pc.part = nil
		return nil
	}
	out := pc.part
	pc.part = nil
	return emit(out)
}

// windowPartitionOp produces the partition stream of a WindowNode: a
// sortedStream over the extended layout, ordered by (partition, order,
// position), whose cursor cuts every merge range into one chunk per
// partition. Partition chunks keep the extended layout; the eval stage
// strips it.
//
// With threads > 1 and a PARTITION BY, the merge phase itself
// partitions: key ranges snapped to partition-key boundaries are merged
// AND cut by N workers concurrently, and the stream re-emits whole
// partitions in order — the cutting no longer runs on the consumer.
// Otherwise the one range is the serial merge, cut on the consumer.
type windowPartitionOp struct {
	sortedStream
}

func newWindowPartitionOp(n *plan.WindowNode, src source) *windowPartitionOp {
	lay := layoutOf(n)
	return &windowPartitionOp{sortedStream{
		src: src, node: n,
		extTypes: lay.extTypes(n), keys: lay.sortKeys(n), rangeKeys: lay.partKeys(),
		extend: func(seq int, chunk *vector.Chunk) (*vector.Chunk, error) {
			return lay.extend(n, chunk, seq)
		},
		cursor: func(part *extsort.Iterator) rangeCursor {
			return &partitionCutCursor{part: part, cutter: newPartitionCutter(lay)}
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

// partitionCutCursor adapts the partition cutter to the pull-based
// rangeCursor — one per range of the partitioned merge, run on the
// scheduler, or one over the serial merge, run on the consumer: each
// Next feeds merged chunks to the cutter until at least one whole
// partition is queued, then emits queued partitions one at a time.
type partitionCutCursor struct {
	part   *extsort.Iterator
	cutter *partitionCutter
	queue  []*vector.Chunk
	done   bool
}

func (pc *partitionCutCursor) enq(c *vector.Chunk) error {
	pc.queue = append(pc.queue, c)
	return nil
}

func (pc *partitionCutCursor) Next() (*vector.Chunk, error) {
	for {
		if len(pc.queue) > 0 {
			c := pc.queue[0]
			pc.queue = pc.queue[1:]
			return c, nil
		}
		if pc.done {
			return nil, nil
		}
		c, err := pc.part.Next()
		if err != nil {
			return nil, err
		}
		if c == nil {
			pc.done = true
			if err := pc.cutter.flush(pc.enq); err != nil {
				return nil, err
			}
			continue
		}
		if c.Len() == 0 {
			continue
		}
		if err := pc.cutter.feed(c, pc.enq); err != nil {
			return nil, err
		}
	}
}

// windowEvalStage computes every window function over one partition
// chunk and emits the payload columns plus the function results, sliced
// back to engine-sized chunks. Instances are stateless apart from the
// shared immutable node, so the exchange runs them concurrently across
// partitions.
type windowEvalStage struct {
	node     *plan.WindowNode
	lay      windowLayout
	outTypes []types.Type
}

func newWindowEvalStage(n *plan.WindowNode) *windowEvalStage {
	lay := layoutOf(n)
	outTypes := append([]types.Type(nil), schemaTypes(n.Child.Schema())...)
	for _, f := range n.Funcs {
		outTypes = append(outTypes, f.Type)
	}
	return &windowEvalStage{node: n, lay: lay, outTypes: outTypes}
}

func (w *windowEvalStage) run(ctx *Context, part *vector.Chunk, emit func(*vector.Chunk) error) error {
	return w.runSlice(ctx, part, 0, part.Len(), emit)
}

// wantSlices reports whether splitting an oversized partition across
// workers can actually beat one worker. Only general (non-growing)
// frames qualify: their O(n·width) per-row rescans divide cleanly by
// row range. Growing frames (the SQL default) fold a serial prefix —
// every slice would redo the rows before it — and ranking/lag do O(n)
// total anyway, so for those the whole partition stays one work item.
// Every slice also redoes the O(n) per-partition setup (peer groups,
// argument evaluation), so bounded frames must additionally be wide
// enough to amortize it — narrow frames stay unsplit.
func (w *windowEvalStage) wantSlices(int) bool {
	f := w.node.Frame
	if !f.Set || (f.Start.Unbounded && f.Start.Preceding) {
		return false
	}
	hasAgg := false
	for _, fn := range w.node.Funcs {
		switch fn.Func {
		case "count", "sum", "avg", "min", "max":
			hasAgg = true
		}
	}
	if !hasAgg {
		return false
	}
	if f.End.Unbounded {
		return true // width ~ n: rescans dominate any setup
	}
	if !f.Rows {
		return false // RANGE general frames: peer-group width, unknown
	}
	// ROWS with bounded offsets: width in rows, signed by direction.
	back, fwd := int64(0), int64(0)
	if f.Start.Preceding {
		back = f.Start.Offset
	} else if !f.Start.Current {
		back = -f.Start.Offset
	}
	if !f.End.Preceding && !f.End.Current {
		fwd = f.End.Offset
	} else if f.End.Preceding {
		fwd = -f.End.Offset
	}
	// The per-slice setup is ~2 full-partition passes and the split cap
	// is 4 items/worker; width >= 64 amortizes it up to 16 workers.
	return back+fwd+1 >= 64
}

// runSlice evaluates rows [lo, hi) of one partition chunk — the
// exchange splits oversized partitions into such slices so several
// workers evaluate one huge partition concurrently. Values are
// bit-identical to whole-partition evaluation: ranking and peer data
// derive from the full partition, and growing frames re-accumulate
// their prefix left-to-right from row 0 (same DOUBLE fold order).
// Slice bounds are ChunkCapacity-aligned, so emission chunk boundaries
// equal the unsplit operator's.
func (w *windowEvalStage) runSlice(ctx *Context, part *vector.Chunk, lo, hi int, emit func(*vector.Chunk) error) error {
	outs, err := evalWindowPartitionSlice(w.node, w.lay, part, lo, hi)
	if err != nil {
		return err
	}
	for base := lo; base < hi; base += vector.ChunkCapacity {
		m := hi - base
		if m > vector.ChunkCapacity {
			m = vector.ChunkCapacity
		}
		out := vector.NewChunk(w.outTypes)
		for c := 0; c < w.lay.np; c++ {
			out.Cols[c].AppendRange(part.Cols[c], base, m)
		}
		for j, ov := range outs {
			out.Cols[w.lay.np+j].AppendRange(ov, base-lo, m)
		}
		out.SetLen(m)
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}

// newWindowOp builds the window operator: per-worker sorters feed the
// merged partition stream, and the eval stage runs on an exchange whose
// ordered merge keeps emission in partition order.
func newWindowOp(src source, n *plan.WindowNode) Operator {
	return newExchangeOp(newWindowPartitionOp(n, src),
		[]stageFactory{func() stage { return newWindowEvalStage(n) }})
}

// ---- per-partition evaluation ----

// evalWindowPartitionSlice computes every window function for rows
// [lo, hi) of one partition (rows already in (order keys, input
// position) order), returning one result vector of length hi-lo per
// function. Ranking, peer groups and frame bounds always derive from
// the whole partition, so any slicing of [0, n) yields bit-identical
// values — including non-associative DOUBLE sums, which are always
// folded left-to-right from the partition start.
func evalWindowPartitionSlice(node *plan.WindowNode, lay windowLayout, part *vector.Chunk, lo, hi int) ([]*vector.Vector, error) {
	n := part.Len()
	m := hi - lo

	peerStart, peerEnd, dense := peerGroups(part, lay, n)

	outs := make([]*vector.Vector, len(node.Funcs))
	for j, f := range node.Funcs {
		var arg *vector.Vector
		if f.Arg != nil {
			// Evaluate against the shared partition chunk directly —
			// args only reference the payload prefix, and concurrent
			// slice workers must not mutate the chunk (a projected
			// sub-chunk's SetLen would materialize shared masks).
			v, err := f.Arg.Eval(part)
			if err != nil {
				return nil, err
			}
			arg = v
		}
		switch f.Func {
		case "row_number":
			out := vector.NewLen(types.BigInt, m)
			for i := lo; i < hi; i++ {
				out.I64[i-lo] = int64(i) + 1
			}
			outs[j] = out
		case "rank":
			out := vector.NewLen(types.BigInt, m)
			for i := lo; i < hi; i++ {
				out.I64[i-lo] = int64(peerStart[i]) + 1
			}
			outs[j] = out
		case "dense_rank":
			out := vector.NewLen(types.BigInt, m)
			copy(out.I64, dense[lo:hi])
			outs[j] = out
		case "lag", "lead":
			outs[j] = evalShift(f, arg, n, lo, hi)
		case "count", "sum", "avg", "min", "max":
			bounds, growing := node.Frame.Bounds(n, peerStart, peerEnd, lay.nok > 0)
			outs[j] = evalFrameAgg(f, arg, n, lo, hi, bounds, growing)
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

// evalShift computes lag/lead for partition rows [lo, hi).
func evalShift(f plan.WindowFunc, arg *vector.Vector, n, lo, hi int) *vector.Vector {
	out := vector.NewLen(f.Type, hi-lo)
	off := int(f.Offset)
	if f.Func == "lag" {
		off = -off
	}
	for i := lo; i < hi; i++ {
		j := i + off
		o := i - lo
		if j < 0 || j >= n {
			out.Set(o, f.Default)
			continue
		}
		if arg.IsNull(j) {
			out.SetNull(o)
			continue
		}
		if arg.Type == f.Type {
			out.SetFrom(o, arg, j)
		} else { // NULL-typed argument: every row is NULL, unreachable
			out.Set(o, arg.Get(j))
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

// evalFrameAgg computes one aggregate over the frames of partition rows
// [lo, hi). Growing frames accumulate incrementally left-to-right from
// the partition start (identical to direct iteration, including the
// DOUBLE reduction order, whatever the slice bounds); general frames
// are re-scanned per row, so slices divide their O(n·width) cost
// cleanly across workers.
func evalFrameAgg(f plan.WindowFunc, arg *vector.Vector, n, lo, hi int, bounds func(i int) (int, int), growing bool) *vector.Vector {
	out := vector.NewLen(f.Type, hi-lo)
	var acc frameAcc
	if growing {
		cur := 0
		for i := 0; i < hi; i++ {
			_, fhi := bounds(i)
			if fhi > n-1 {
				fhi = n - 1
			}
			for cur <= fhi {
				acc.add(&f, arg, cur)
				cur++
			}
			if i >= lo {
				acc.finish(&f, arg, out, i-lo)
			}
		}
		return out
	}
	for i := lo; i < hi; i++ {
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
		acc.finish(&f, arg, out, i-lo)
	}
	return out
}
