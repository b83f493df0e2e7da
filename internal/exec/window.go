package exec

import (
	"fmt"
	"math"

	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// The window operator evaluates fn(...) OVER (PARTITION BY ... ORDER BY
// ... [frame]) in two phases sharing one total order:
//
//  1. Sort: every input row is laid out by sortLayout — the payload, any
//     partition or order key that is not a payload column, and a hidden
//     packed (chunk, row) position — and fed to the external sorter keyed
//     by (partition, order, position). The hidden position makes the sort
//     a total order, so the sorted stream — and with it every downstream
//     value — is bit-identical at every thread count. The phase runs on
//     the source's workers with one sorter per worker (splitting the sort
//     budget, like ORDER BY) and k-way merges all runs.
//  2. Stream: partitionCutCursor walks the merged chunks. A typed
//     equality kernel over each chunk's key columns finds the partition
//     cuts and peer-group boundaries, and every function is evaluated off
//     the merged chunks themselves: a row's value is written as soon as
//     the last row it depends on has arrived, and the cursor holds only
//     the rows some value still needs. Rows leave as the payload plus the
//     new columns in ChunkCapacity slices aligned to the partition start.
//
// The stream runs where the merge runs: on the range workers of a
// partitioned merge, else on the caller. Output order is (partition
// keys, order keys, input position) at every thread count.

// windowOp is the window operator: a sortedStream ordered by (partition,
// order, position) whose cursor cuts every merge range into partitions
// and evaluates them as they stream past.
//
// With threads > 1 and a PARTITION BY, the merge phase itself
// partitions: key ranges snapped to partition-key boundaries are merged,
// cut and evaluated by N workers concurrently, and the stream re-emits
// them in order. Otherwise the one range is the serial merge, cut and
// evaluated on the caller.
type windowOp struct {
	sortedStream
}

func newWindowOp(src source, n *plan.WindowNode, slot *OpProfile) *windowOp {
	keys := make([]plan.SortKey, 0, len(n.PartitionBy)+len(n.OrderBy))
	for _, e := range n.PartitionBy {
		keys = append(keys, plan.SortKey{Expr: e, NullsFirst: true})
	}
	keys = append(keys, n.OrderBy...)
	extTypes, sortKeys, extend := sortLayout(schemaTypes(n.Child.Schema()), keys)
	return &windowOp{sortedStream{
		src: src, slot: slot,
		extTypes: extTypes, keys: sortKeys, rangeKeys: sortKeys[:len(n.PartitionBy)], extend: extend,
		cursor: func(_ *Context, part *extsort.Iterator) rangeCursor {
			return newPartitionCutCursor(n, sortKeys, part, slot)
		},
	}}
}

// mergedChunks is what a partitionCutCursor reads: one merge range's
// sorted chunks, each a fresh chunk the cursor may keep views into.
type mergedChunks interface {
	Next() (*vector.Chunk, error)
}

// Frame edges, resolved for row i of a partition of n rows.
const (
	edgeFirst = iota // UNBOUNDED PRECEDING: row 0
	edgeRow          // i + off, saturating
	edgePeer         // RANGE CURRENT ROW: the first or last row of i's peer group
	edgeLast         // UNBOUNDED FOLLOWING: row n-1, known at the partition end
)

type frameEdge struct {
	kind int
	off  int // edgeRow: signed distance from the current row
}

// frameEdges resolves a WindowNode's frame into its start and end edges,
// the same frame plan.WindowFrame.Bounds describes.
func frameEdges(fr plan.WindowFrame, hasOrder bool) (lo, hi frameEdge) {
	if !fr.Set {
		if !hasOrder {
			return frameEdge{kind: edgeFirst}, frameEdge{kind: edgeLast}
		}
		return frameEdge{kind: edgeFirst}, frameEdge{kind: edgePeer}
	}
	edge := func(b plan.FrameBound) frameEdge {
		switch {
		case b.Unbounded && b.Preceding:
			return frameEdge{kind: edgeFirst}
		case b.Unbounded:
			return frameEdge{kind: edgeLast}
		case b.Current && fr.Rows:
			return frameEdge{kind: edgeRow}
		case b.Current:
			return frameEdge{kind: edgePeer}
		case b.Preceding:
			return frameEdge{kind: edgeRow, off: -int(b.Offset)}
		default:
			return frameEdge{kind: edgeRow, off: int(b.Offset)}
		}
	}
	return edge(fr.Start), edge(fr.End)
}

// satAdd is i + d for a row index i >= 0 and a frame offset d >= -MaxInt,
// saturating at MaxInt instead of wrapping: an offset past the partition
// edge means the edge.
func satAdd(i, d int) int {
	if d > 0 && i > math.MaxInt-d {
		return math.MaxInt
	}
	return i + d
}

// Window function kinds; the aggregates come last.
const (
	fnRowNumber = iota
	fnRank
	fnDenseRank
	fnLag
	fnLead
	fnCount
	fnSum
	fnAvg
	fnMin
	fnMax
)

var winFuncKinds = map[string]int{"row_number": fnRowNumber, "rank": fnRank, "dense_rank": fnDenseRank,
	"lag": fnLag, "lead": fnLead, "count": fnCount, "sum": fnSum, "avg": fnAvg, "min": fnMin, "max": fnMax}

// winFunc is one function's streaming state within the current
// partition: done rows have their value written.
type winFunc struct {
	f    *plan.WindowFunc
	j    int // function index: winSeg.args slot
	col  int // output column
	kind int
	avgF bool // avg over DOUBLE
	off  int  // lag/lead offset

	done        int
	rank, dense int64
	acc         winAcc
	folded      int // growing frames: rows folded into acc
	g           int // peer-bounded frames: global index of done's peer group
}

func (w *winFunc) reset() {
	w.done, w.rank, w.dense, w.acc, w.folded, w.g = 0, 0, 0, winAcc{}, 0, 0
}

// winSeg is a view of merged-chunk rows [lo, hi) that belong to the
// current partition, from partition row base on: each function's
// argument evaluated over the whole chunk.
type winSeg struct {
	args   []*vector.Vector // per function; nil without an argument
	lo, hi int
	base   int
}

// partitionCutCursor is the window's rangeCursor — one per range of the
// partitioned merge, run on the scheduler, or one over the serial merge,
// run on the caller. It streams its sorted (partition, order, position)
// chunks: rows equal on the partition keys are contiguous, so a partition
// ends where the keys change (range boundaries snap to partition-key
// boundaries, so no partition straddles two ranges).
//
// Arriving rows are copied once, into the output slice that will carry
// them; the merged chunk itself stays referenced (as a winSeg) only
// while some function still reads its argument values. Each function
// writes its values in row order as soon as they are known:
//   - row_number, rank, dense_rank and lag at arrival;
//   - lead(off) when row i+off arrives;
//   - a growing frame (UNBOUNDED PRECEDING ..) at its end — the peer
//     group's end for RANGE, i+k for k FOLLOWING — folding one running
//     accumulator left to right from the partition start;
//   - any other frame by a rescan of its held rows once its end arrived;
//   - frames ending at UNBOUNDED FOLLOWING at the partition end.
//
// An output slice leaves once every function has filled it. Each Next
// feeds merged chunks in until a slice is complete and returns the
// slices completed so far as one batch.
type partitionCutCursor struct {
	np       int
	partCols []int // partition key columns of the sorted rows
	ordCols  []int // order key columns
	outTypes []types.Type
	in       mergedChunks
	slot     *OpProfile
	fns      []winFunc
	lo, hi   frameEdge
	growing  bool // frame starts at UNBOUNDED PRECEDING
	peers    bool // a frame edge is a peer-group edge: keep gstarts
	ranked   bool // peer breaks are needed (rank, dense_rank or peers)

	// the partition being streamed
	n       int             // rows arrived
	started bool            // a partition is open
	segs    []winSeg        // held views, oldest first
	outs    []*vector.Chunk // unfinished output slices; outs[0] starts at outBase
	outBase int
	gstarts []int // starts of the peer groups from global group gdrop on
	gdrop   int
	held    int64 // high-water mark of rows held

	prev       *vector.Chunk // the last row seen, for the next chunk's breaks
	prevRow    int
	pbrk, obrk []bool // break scratch
	queue      []*vector.Chunk
	done       bool
	err        error
}

func newPartitionCutCursor(n *plan.WindowNode, keys []extsort.Key, in mergedChunks, slot *OpProfile) *partitionCutCursor {
	np, npk := len(n.Child.Schema()), len(n.PartitionBy)
	pc := &partitionCutCursor{np: np, in: in, slot: slot,
		outTypes: append([]types.Type(nil), schemaTypes(n.Child.Schema())...)}
	for _, k := range keys[:npk] {
		pc.partCols = append(pc.partCols, k.Col)
	}
	for _, k := range keys[npk : npk+len(n.OrderBy)] {
		pc.ordCols = append(pc.ordCols, k.Col)
	}
	pc.lo, pc.hi = frameEdges(n.Frame, len(n.OrderBy) > 0)
	pc.growing = pc.lo.kind == edgeFirst
	for j := range n.Funcs {
		f := &n.Funcs[j]
		pc.outTypes = append(pc.outTypes, f.Type)
		kind, ok := winFuncKinds[f.Func]
		if !ok {
			pc.err = fmt.Errorf("exec: unknown window function %q", f.Func)
		}
		w := winFunc{f: f, j: j, col: np + j, kind: kind, off: int(f.Offset),
			avgF: f.Arg != nil && f.Arg.Type() == types.Double}
		switch {
		case kind == fnRank || kind == fnDenseRank:
			pc.ranked = true
		case kind >= fnCount && (pc.lo.kind == edgePeer || pc.hi.kind == edgePeer):
			pc.peers, pc.ranked = true, true
		}
		pc.fns = append(pc.fns, w)
	}
	return pc
}

func (pc *partitionCutCursor) Next() ([]*vector.Chunk, error) {
	if pc.err != nil {
		return nil, pc.err
	}
	for len(pc.queue) == 0 && !pc.done {
		c, err := pc.in.Next()
		if err != nil {
			return nil, err
		}
		if c == nil {
			pc.done = true
			if pc.started {
				pc.finishPartition()
			}
			continue
		}
		if c.Len() > 0 {
			if err := pc.feed(c); err != nil {
				return nil, err
			}
		}
	}
	b := pc.queue
	pc.queue = nil
	return b, nil
}

// feed cuts one merged chunk into partition runs and streams each into
// its partition.
func (pc *partitionCutCursor) feed(c *vector.Chunk) error {
	args := make([]*vector.Vector, len(pc.fns))
	for j := range pc.fns {
		if e := pc.fns[j].f.Arg; e != nil {
			v, err := e.Eval(c)
			if err != nil {
				return err
			}
			args[j] = v
		}
	}
	pc.pbrk = pc.breaks(pc.pbrk, c, pc.partCols, nil)
	var ob []bool
	if pc.ranked {
		pc.obrk = pc.breaks(pc.obrk, c, pc.ordCols, pc.pbrk)
		ob = pc.obrk
	}
	n := c.Len()
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && !pc.pbrk[hi] {
			hi++
		}
		if pc.pbrk[lo] && pc.started {
			pc.finishPartition()
		}
		pc.started = true
		var peer []bool
		if ob != nil {
			peer = ob[lo:hi]
		}
		pc.add(c, args, lo, hi, peer)
		lo = hi
	}
	pc.prev, pc.prevRow = c, n-1
	return nil
}

// breaks returns dst sized to c with dst[r] set when row r of c starts a
// new run of rows equal on cols: when base[r] is set (base may be nil),
// or when r differs from the row before it — row 0 from the previous
// chunk's last row — under the sort's equality.
func (pc *partitionCutCursor) breaks(dst []bool, c *vector.Chunk, cols []int, base []bool) []bool {
	n := c.Len()
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	if base != nil {
		copy(dst, base)
	} else {
		clear(dst)
	}
	if !dst[0] {
		dst[0] = pc.prev == nil || !sameRow(pc.prev, pc.prevRow, c, 0, cols)
	}
	for _, col := range cols {
		markBreaks(dst, c.Cols[col])
	}
	return dst
}

// sameRow reports whether row ra of a and row rb of b are equal on cols.
func sameRow(a *vector.Chunk, ra int, b *vector.Chunk, rb int, cols []int) bool {
	for _, col := range cols {
		if !sameValue(a.Cols[col], ra, b.Cols[col], rb) {
			return false
		}
	}
	return true
}

// sameValue is the sort's equality: NULL equals NULL, DOUBLEs compare by
// types.CanonF64Bits (-0 = +0, every NaN equal), strings in full.
func sameValue(a *vector.Vector, ra int, b *vector.Vector, rb int) bool {
	na, nb := a.IsNull(ra), b.IsNull(rb)
	if na || nb {
		return na && nb
	}
	switch a.Type {
	case types.Boolean:
		return a.Bools[ra] == b.Bools[rb]
	case types.Integer:
		return a.I32[ra] == b.I32[rb]
	case types.BigInt, types.Timestamp:
		return a.I64[ra] == b.I64[rb]
	case types.Double:
		return types.CanonF64Bits(a.F64[ra]) == types.CanonF64Bits(b.F64[rb])
	case types.Varchar:
		return a.Str[ra] == b.Str[rb]
	}
	return true
}

// markBreaks sets brk[r] for every row r > 0 of v that differs from row
// r-1 under sameValue, a column at a time.
//
//quack:hotpath
func markBreaks(brk []bool, v *vector.Vector) {
	n := len(brk)
	if !v.Valid.AllValid() {
		for r := 1; r < n; r++ {
			brk[r] = brk[r] || !sameValue(v, r-1, v, r)
		}
		return
	}
	switch v.Type {
	case types.Boolean:
		x := v.Bools[:n]
		for r := 1; r < n; r++ {
			brk[r] = brk[r] || x[r] != x[r-1]
		}
	case types.Integer:
		x := v.I32[:n]
		for r := 1; r < n; r++ {
			brk[r] = brk[r] || x[r] != x[r-1]
		}
	case types.BigInt, types.Timestamp:
		x := v.I64[:n]
		for r := 1; r < n; r++ {
			brk[r] = brk[r] || x[r] != x[r-1]
		}
	case types.Double:
		x := v.F64[:n]
		for r := 1; r < n; r++ {
			brk[r] = brk[r] || types.CanonF64Bits(x[r]) != types.CanonF64Bits(x[r-1])
		}
	case types.Varchar:
		x := v.Str[:n]
		for r := 1; r < n; r++ {
			brk[r] = brk[r] || x[r] != x[r-1]
		}
	}
}

// add streams rows [lo, hi) of c into the open partition: their payload
// is copied into the output slices, every function writes what the new
// rows resolve, and finished slices are queued. peer[r-lo] marks the
// rows that start a peer group (nil when nothing needs peers).
func (pc *partitionCutCursor) add(c *vector.Chunk, args []*vector.Vector, lo, hi int, peer []bool) {
	n0 := pc.n
	pc.segs = append(pc.segs, winSeg{args: args, lo: lo, hi: hi, base: n0})
	for r := lo; r < hi; {
		rel := pc.n - pc.outBase
		k := rel / vector.ChunkCapacity
		if k == len(pc.outs) {
			pc.outs = append(pc.outs, vector.NewChunk(pc.outTypes))
		}
		m := min(hi-r, vector.ChunkCapacity-rel%vector.ChunkCapacity)
		out := pc.outs[k]
		for col := 0; col < pc.np; col++ {
			out.Cols[col].AppendRange(c.Cols[col], r, m)
		}
		pc.n += m
		r += m
	}
	if pc.peers {
		for r, b := range peer {
			if b {
				pc.gstarts = append(pc.gstarts, n0+r)
			}
		}
	}
	for j := range pc.fns {
		w := &pc.fns[j]
		switch w.kind {
		case fnRowNumber, fnRank, fnDenseRank:
			pc.ranks(w, peer)
		case fnLag:
			pc.lag(w)
		case fnLead:
			pc.lead(w)
		default:
			pc.resolveAgg(w, false)
		}
	}
	first := pc.outBase
	if len(pc.segs) > 0 {
		first = min(first, pc.segs[0].base)
	}
	pc.held = max(pc.held, int64(pc.n-first))
	pc.emit(false)
	pc.trim()
}

// finishPartition resolves every value left open at the partition's end,
// queues its last slices and resets the partition state.
func (pc *partitionCutCursor) finishPartition() {
	for j := range pc.fns {
		w := &pc.fns[j]
		switch {
		case w.kind == fnLead:
			pc.appendDefaults(w, pc.n)
		case w.kind >= fnCount:
			pc.resolveAgg(w, true)
		}
	}
	pc.emit(true)
	raisePeak(&pc.slot.WindowHeldRows, pc.held)
	clear(pc.segs)
	pc.segs, pc.outs, pc.gstarts = pc.segs[:0], pc.outs[:0], pc.gstarts[:0]
	pc.n, pc.outBase, pc.gdrop, pc.started = 0, 0, 0, false
	for j := range pc.fns {
		pc.fns[j].reset()
	}
}

// emit queues the leading output slices every function has filled; at
// the partition end the last, partial slice too.
func (pc *partitionCutCursor) emit(final bool) {
	for len(pc.outs) > 0 {
		out := pc.outs[0]
		rows := min(pc.n-pc.outBase, vector.ChunkCapacity)
		if rows < vector.ChunkCapacity && !final {
			return
		}
		for j := range pc.fns {
			if out.Cols[pc.fns[j].col].Len() < rows {
				return
			}
		}
		out.SetLen(rows)
		pc.queue = append(pc.queue, out)
		pc.outs[0] = nil
		pc.outs = pc.outs[1:]
		pc.outBase += rows
	}
}

// trim drops the held views no function reads any more, and the peer
// groups no frame reaches back to.
func (pc *partitionCutCursor) trim() {
	need, g := pc.n, math.MaxInt
	for j := range pc.fns {
		w := &pc.fns[j]
		need = min(need, pc.needFrom(w))
		if w.kind >= fnCount && pc.peers {
			g = min(g, w.g)
		}
	}
	k := 0
	for k < len(pc.segs) && pc.segs[k].base+pc.segs[k].hi-pc.segs[k].lo <= need {
		k++
	}
	if k > 0 {
		clear(pc.segs[:k])
		pc.segs = pc.segs[k:]
	}
	if drop := g - pc.gdrop; pc.peers && drop > 0 {
		pc.gstarts = pc.gstarts[drop:]
		pc.gdrop = g
	}
}

// needFrom is the first partition row whose argument w may still read.
func (pc *partitionCutCursor) needFrom(w *winFunc) int {
	switch w.kind {
	case fnLag:
		return max(pc.n-w.off, 0)
	case fnLead:
		if w.off >= pc.n-w.done {
			return pc.n
		}
		return w.done + w.off
	}
	switch {
	case w.kind < fnCount || w.f.Arg == nil:
		return pc.n
	case pc.growing:
		return w.folded
	case pc.lo.kind == edgeRow:
		return min(max(satAdd(w.done, pc.lo.off), 0), pc.n)
	case pc.lo.kind == edgePeer:
		return pc.gstarts[w.g-pc.gdrop]
	}
	return w.done
}

// slice returns function w's result column in the output slice holding
// partition row i, and how many of the k rows from i that slice takes.
// Values are appended in row order, so the column already holds every
// earlier row of its slice.
func (pc *partitionCutCursor) slice(w *winFunc, i, k int) (*vector.Vector, int) {
	rel := i - pc.outBase
	return pc.outs[rel/vector.ChunkCapacity].Cols[w.col], min(k, vector.ChunkCapacity-rel%vector.ChunkCapacity)
}

// segAt returns the index of the held view holding partition row i.
func (pc *partitionCutCursor) segAt(i int) int {
	lo, hi := 0, len(pc.segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if pc.segs[mid].base <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// ranks writes row_number, rank or dense_rank for the rows that arrived
// since w.done; peer marks their peer-group starts.
//
//quack:hotpath
func (pc *partitionCutCursor) ranks(w *winFunc, peer []bool) {
	n0 := w.done
	for i := n0; i < pc.n; {
		v, m := pc.slice(w, i, pc.n-i)
		at := v.Len()
		v.SetLen(at + m)
		out := v.I64[at : at+m]
		switch w.kind {
		case fnRowNumber:
			for t := range out {
				out[t] = int64(i+t) + 1
			}
		case fnRank:
			for t := range out {
				if peer[i+t-n0] {
					w.rank = int64(i+t) + 1
				}
				out[t] = w.rank
			}
		default:
			for t := range out {
				if peer[i+t-n0] {
					w.dense++
				}
				out[t] = w.dense
			}
		}
		i += m
	}
	w.done = pc.n
}

// lag writes lag(off) for the rows that arrived: the argument off rows
// back, or the default where there is none.
func (pc *partitionCutCursor) lag(w *winFunc) {
	if w.off > w.done {
		pc.appendDefaults(w, min(pc.n, w.off))
	}
	pc.appendArgs(w, pc.n)
}

// lead writes lead(off) for every row whose row off ahead has arrived.
func (pc *partitionCutCursor) lead(w *winFunc) {
	if pc.n > w.off {
		pc.appendArgs(w, pc.n-w.off)
	}
}

// appendArgs writes rows [w.done, to) of w, each the argument value
// |off| rows away (lag reads back, lead ahead), copied a run at a time.
func (pc *partitionCutCursor) appendArgs(w *winFunc, to int) {
	for w.done < to {
		v, m := pc.slice(w, w.done, to-w.done)
		src := w.done + w.off
		if w.kind == fnLag {
			src = w.done - w.off
		}
		for k := pc.segAt(src); m > 0; k++ {
			s := &pc.segs[k]
			r := s.lo + src - s.base
			t := min(m, s.hi-r)
			if a := s.args[w.j]; a.Type == v.Type {
				v.AppendRange(a, r, t)
			} else { // a NULL-typed argument: every row is NULL
				at := v.Len()
				v.SetLen(at + t)
				for x := at; x < at+t; x++ {
					v.SetNull(x)
				}
			}
			src += t
			m -= t
			w.done += t
		}
	}
}

// appendDefaults writes the lag/lead default to rows [w.done, to).
func (pc *partitionCutCursor) appendDefaults(w *winFunc, to int) {
	for w.done < to {
		v, m := pc.slice(w, w.done, to-w.done)
		at := v.Len()
		v.SetLen(at + m)
		for x := at; x < at+m; x++ {
			v.Set(x, w.f.Default)
		}
		w.done += m
	}
}

// edgeAt resolves frame edge e for partition row i, whose peer group is
// global group g, and reports whether it is known yet: an end edge is
// known once its row has arrived, UNBOUNDED FOLLOWING at the partition
// end.
func (pc *partitionCutCursor) edgeAt(e frameEdge, start bool, i, g int, final bool) (int, bool) {
	switch e.kind {
	case edgeFirst:
		return 0, true
	case edgeLast:
		return pc.n - 1, final
	case edgeRow:
		x := satAdd(i, e.off)
		return x, start || final || x < pc.n
	}
	if start {
		return pc.gstarts[g-pc.gdrop], true
	}
	if next := g + 1 - pc.gdrop; next < len(pc.gstarts) {
		return pc.gstarts[next] - 1, true
	}
	return pc.n - 1, final
}

// resolveAgg writes the aggregate for every row from w.done on whose
// frame is known. A growing frame folds rows into the running
// accumulator up to the frame end and never re-reads them; any other
// frame is re-scanned per row. Rows sharing a frame (one peer group
// under RANGE) take one value.
func (pc *partitionCutCursor) resolveAgg(w *winFunc, final bool) {
	if pc.growing && pc.hi.kind == edgeLast && w.folded < pc.n {
		pc.fold(w, &w.acc, w.folded, pc.n)
		w.folded = pc.n
	}
	for w.done < pc.n {
		i := w.done
		if pc.peers {
			for next := w.g + 1 - pc.gdrop; next < len(pc.gstarts) && pc.gstarts[next] <= i; next++ {
				w.g++
			}
		}
		hi, ok := pc.edgeAt(pc.hi, false, i, w.g, final)
		if !ok {
			return
		}
		hi = min(hi, pc.n-1)
		end := i + 1
		if pc.growing {
			if hi+1 > w.folded {
				pc.fold(w, &w.acc, w.folded, hi+1)
				w.folded = hi + 1
			}
			if pc.hi.kind == edgePeer || pc.hi.kind == edgeLast {
				end = hi + 1
			}
		} else {
			lo, ok := pc.edgeAt(pc.lo, true, i, w.g, final)
			if !ok {
				return
			}
			w.acc = winAcc{}
			pc.fold(w, &w.acc, max(lo, 0), hi+1)
			if pc.lo.kind == edgePeer && pc.hi.kind == edgePeer {
				end = hi + 1
			}
		}
		for w.done < end {
			v, m := pc.slice(w, w.done, end-w.done)
			at := v.Len()
			v.SetLen(at + m)
			for x := at; x < at+m; x++ {
				w.acc.put(w, v, x)
			}
			w.done += m
		}
	}
}

// fold folds partition rows [from, to) of w's argument into acc, a held
// view at a time.
func (pc *partitionCutCursor) fold(w *winFunc, acc *winAcc, from, to int) {
	if from >= to {
		return
	}
	if w.f.Arg == nil { // count(*)
		acc.count += int64(to - from)
		return
	}
	for k := pc.segAt(from); from < to; k++ {
		s := &pc.segs[k]
		r := s.lo + from - s.base
		t := min(to-from, s.hi-r)
		acc.fold(w.kind, s.args[w.j], r, r+t)
		from += t
	}
}

// winAcc is the running state of one frame aggregate. min/max keep the
// aggregation's rule (ordBetter, floatBetter): DOUBLEs in CompareFloat
// order, the value kept bit for bit, ties keeping the earlier value.
type winAcc struct {
	count int64
	sumI  int64
	sumF  float64
	bestI int64
	bestF float64
	bestS string
	set   bool
}

// fold adds rows [lo, hi) of v to a count, sum/avg or min/max; NULLs
// are skipped.
//
//quack:hotpath
func (a *winAcc) fold(kind int, v *vector.Vector, lo, hi int) {
	valid := &v.Valid
	if kind == fnCount {
		if valid.AllValid() {
			a.count += int64(hi - lo)
			return
		}
		for r := lo; r < hi; r++ {
			if valid.IsValid(r) {
				a.count++
			}
		}
		return
	}
	minMax, isMax := kind >= fnMin, kind == fnMax
	switch v.Type {
	case types.Double:
		x := v.F64
		for r := lo; r < hi; r++ {
			if !valid.IsValid(r) {
				continue
			}
			a.count++
			if !minMax {
				a.sumF += x[r]
			} else if !a.set || floatBetter(x[r], a.bestF, isMax) {
				a.bestF, a.set = x[r], true
			}
		}
	case types.BigInt, types.Timestamp:
		foldInts(a, v.I64, valid, lo, hi, minMax, isMax)
	case types.Integer:
		foldInts(a, v.I32, valid, lo, hi, minMax, isMax)
	case types.Boolean:
		for r := lo; r < hi; r++ {
			if valid.IsValid(r) {
				var b int64
				if v.Bools[r] {
					b = 1
				}
				a.addInt(b, minMax, isMax)
			}
		}
	case types.Varchar:
		x := v.Str
		for r := lo; r < hi; r++ {
			if !valid.IsValid(r) {
				continue
			}
			a.count++
			if minMax && (!a.set || ordBetter(x[r], a.bestS, isMax)) {
				a.bestS, a.set = x[r], true
			}
		}
	}
}

// foldInts is winAcc.fold over an integer payload.
//
//quack:hotpath
func foldInts[T intElem](a *winAcc, x []T, valid *vector.Bitmask, lo, hi int, minMax, isMax bool) {
	for r := lo; r < hi; r++ {
		if valid.IsValid(r) {
			a.addInt(int64(x[r]), minMax, isMax)
		}
	}
}

// addInt folds one non-NULL integer value.
func (a *winAcc) addInt(i int64, minMax, isMax bool) {
	a.count++
	if !minMax {
		a.sumI += i
	} else if !a.set || ordBetter(i, a.bestI, isMax) {
		a.bestI, a.set = i, true
	}
}

// put writes the aggregate's current value to row at of out.
func (a *winAcc) put(w *winFunc, out *vector.Vector, at int) {
	switch w.kind {
	case fnCount:
		out.I64[at] = a.count
	case fnSum:
		switch {
		case a.count == 0:
			out.SetNull(at)
		case out.Type == types.Double:
			out.F64[at] = a.sumF
		default:
			out.I64[at] = a.sumI
		}
	case fnAvg:
		switch {
		case a.count == 0:
			out.SetNull(at)
		case w.avgF:
			out.F64[at] = a.sumF / float64(a.count)
		default:
			out.F64[at] = float64(a.sumI) / float64(a.count)
		}
	default: // min, max
		if !a.set {
			out.SetNull(at)
			return
		}
		switch out.Type {
		case types.Double:
			out.F64[at] = a.bestF
		case types.BigInt, types.Timestamp:
			out.I64[at] = a.bestI
		case types.Integer:
			out.I32[at] = int32(a.bestI)
		case types.Boolean:
			out.Bools[at] = a.bestI != 0
		case types.Varchar:
			out.Str[at] = a.bestS
		}
	}
}
