package oracle

import (
	"sort"

	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
)

// rowWindow evaluates a WindowNode tuple-at-a-time for the E6 ablation
// baseline: rows are materialized, stable-sorted by (partition keys,
// order keys) — insertion order is the hidden tiebreak, exactly the
// vectorized engine's (partition, order, position) total order — cut
// into partitions, and every function is computed with boxed per-row
// accumulation. Frames are resolved per row by plan.WindowFrame.Bounds,
// which the streaming vectorized operator does not use, and DOUBLE
// aggregates fold left-to-right in partition order, so the output
// matches the chunked executors bit-for-bit, row order included.
type rowWindow struct {
	child rowIterator
	node  *plan.WindowNode

	out   [][]types.Value
	pos   int
	built bool
}

func (w *rowWindow) Open(tx *txn.Transaction) error {
	w.out, w.pos, w.built = nil, 0, false
	return w.child.Open(tx)
}

func (w *rowWindow) NextRow() ([]types.Value, error) {
	if !w.built {
		if err := w.build(); err != nil {
			return nil, err
		}
		w.built = true
	}
	if w.pos >= len(w.out) {
		return nil, nil
	}
	row := w.out[w.pos]
	w.pos++
	return row, nil
}

func (w *rowWindow) Close() {
	w.out = nil
	w.child.Close()
}

// cmpKeyVal orders two key values under (desc, nullsFirst); NULLs group
// per the flag independent of direction, like extsort.CompareRows.
func cmpKeyVal(a, b types.Value, desc, nullsFirst bool) int {
	if a.Null || b.Null {
		switch {
		case a.Null && b.Null:
			return 0
		case a.Null == nullsFirst:
			return -1
		default:
			return 1
		}
	}
	c := types.Compare(a, b)
	if desc {
		return -c
	}
	return c
}

func (w *rowWindow) build() error {
	var rows [][]types.Value
	var pks, oks [][]types.Value
	for {
		row, err := w.child.NextRow()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		pk := make([]types.Value, len(w.node.PartitionBy))
		for i, e := range w.node.PartitionBy {
			v, err := evalRow(e, row)
			if err != nil {
				return err
			}
			pk[i] = v
		}
		ok := make([]types.Value, len(w.node.OrderBy))
		for i, k := range w.node.OrderBy {
			v, err := evalRow(k.Expr, row)
			if err != nil {
				return err
			}
			ok[i] = v
		}
		rows = append(rows, row)
		pks = append(pks, pk)
		oks = append(oks, ok)
	}

	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	cmp := func(a, b int) int {
		for k := range w.node.PartitionBy {
			if c := cmpKeyVal(pks[a][k], pks[b][k], false, true); c != 0 {
				return c
			}
		}
		for k, key := range w.node.OrderBy {
			if c := cmpKeyVal(oks[a][k], oks[b][k], key.Desc, key.NullsFirst); c != 0 {
				return c
			}
		}
		return 0
	}
	sort.SliceStable(idx, func(i, j int) bool { return cmp(idx[i], idx[j]) < 0 })

	samePart := func(a, b int) bool {
		for k := range w.node.PartitionBy {
			va, vb := pks[a][k], pks[b][k]
			if va.Null != vb.Null || (!va.Null && types.Compare(va, vb) != 0) {
				return false
			}
		}
		return true
	}
	for start := 0; start < len(idx); {
		end := start + 1
		for end < len(idx) && samePart(idx[start], idx[end]) {
			end++
		}
		if err := w.evalPartition(rows, oks, idx[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// evalPartition appends the partition's output rows (payload plus one
// value per function) in sorted order.
func (w *rowWindow) evalPartition(rows, oks [][]types.Value, part []int) error {
	n := len(part)
	samePeer := func(a, b int) bool {
		for k := range w.node.OrderBy {
			va, vb := oks[a][k], oks[b][k]
			if va.Null != vb.Null || (!va.Null && types.Compare(va, vb) != 0) {
				return false
			}
		}
		return true
	}
	peerStart := make([]int, n)
	peerEnd := make([]int, n)
	dense := make([]int64, n)
	gs, rk := 0, int64(1)
	for i := 0; i < n; i++ {
		if i > 0 && !samePeer(part[i-1], part[i]) {
			for k := gs; k < i; k++ {
				peerEnd[k] = i - 1
			}
			gs = i
			rk++
		}
		peerStart[i] = gs
		dense[i] = rk
	}
	for k := gs; k < n; k++ {
		peerEnd[k] = n - 1
	}

	cols := make([][]types.Value, len(w.node.Funcs))
	for j, f := range w.node.Funcs {
		var args []types.Value
		if f.Arg != nil {
			args = make([]types.Value, n)
			for i, r := range part {
				v, err := evalRow(f.Arg, rows[r])
				if err != nil {
					return err
				}
				args[i] = v
			}
		}
		out := make([]types.Value, n)
		switch f.Func {
		case "row_number":
			for i := 0; i < n; i++ {
				out[i] = types.NewBigInt(int64(i) + 1)
			}
		case "rank":
			for i := 0; i < n; i++ {
				out[i] = types.NewBigInt(int64(peerStart[i]) + 1)
			}
		case "dense_rank":
			for i := 0; i < n; i++ {
				out[i] = types.NewBigInt(dense[i])
			}
		case "lag", "lead":
			off := int(f.Offset)
			if f.Func == "lag" {
				off = -off
			}
			for i := 0; i < n; i++ {
				j := i + off
				switch {
				case j < 0 || j >= n:
					out[i] = f.Default
				case args[j].Null:
					out[i] = types.NewNull(f.Type)
				default:
					out[i] = args[j]
				}
			}
		default: // count, sum, avg, min, max
			bounds := w.node.Frame.Bounds(n, peerStart, peerEnd, len(w.node.OrderBy) > 0)
			for i := 0; i < n; i++ {
				lo, hi := bounds(i)
				if lo < 0 {
					lo = 0
				}
				if hi > n-1 {
					hi = n - 1
				}
				out[i] = rowFrameAgg(&w.node.Funcs[j], args, lo, hi)
			}
		}
		cols[j] = out
	}

	for i, r := range part {
		out := make([]types.Value, 0, len(rows[r])+len(cols))
		out = append(out, rows[r]...)
		for j := range cols {
			out = append(out, cols[j][i])
		}
		w.out = append(w.out, out)
	}
	return nil
}

// rowFrameAgg folds one frame [lo, hi] left-to-right over boxed values,
// mirroring the engine's frame aggregates (NULLs skipped; empty frames yield
// NULL, count 0).
func rowFrameAgg(f *plan.WindowFunc, args []types.Value, lo, hi int) types.Value {
	var (
		count   int64
		sumI    int64
		sumF    float64
		best    types.Value
		bestSet bool
	)
	for r := lo; r <= hi; r++ {
		if args == nil { // count(*)
			count++
			continue
		}
		v := args[r]
		if v.Null {
			continue
		}
		count++
		switch f.Func {
		case "sum", "avg":
			switch v.Type {
			case types.Double:
				sumF += v.F64
			case types.Boolean:
				if v.Bool {
					sumI++
				}
			default:
				sumI += v.AsInt()
			}
		case "min", "max":
			if !bestSet {
				best, bestSet = v, true
				continue
			}
			c := types.Compare(v, best)
			if (f.Func == "max" && c > 0) || (f.Func == "min" && c < 0) {
				best = v
			}
		}
	}
	switch f.Func {
	case "count":
		return types.NewBigInt(count)
	case "sum":
		if count == 0 {
			return types.NewNull(f.Type)
		}
		if f.Type == types.Double {
			return types.NewDouble(sumF)
		}
		return types.NewBigInt(sumI)
	case "avg":
		if count == 0 {
			return types.NewNull(types.Double)
		}
		if f.Arg != nil && f.Arg.Type() == types.Double {
			return types.NewDouble(sumF / float64(count))
		}
		return types.NewDouble(float64(sumI) / float64(count))
	default: // min, max
		if !bestSet {
			return types.NewNull(f.Type)
		}
		return best
	}
}
