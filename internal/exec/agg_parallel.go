package exec

import (
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/types"
	"repro/internal/vector"
)

// AggWorkersAdmitted reports how many parallel accumulation workers an
// enforced memory budget admits for this aggregation. States touched by
// the morsel a worker is accumulating can never spill, so in the worst
// case (every morsel row a distinct group) each worker pins SegRows ×
// per-group state bytes that spilling cannot reclaim; admitting only
// limit / that many workers keeps the unspillable total inside the
// budget instead of letting reservation hard-fail mid-query. Real
// workloads repeat groups across rows, so the clamp binds only when the
// budget is within a few morsels' worth of states. EXPLAIN uses the
// same formula to surface the clamp.
func AggWorkersAdmitted(limit int64, threads int, n *plan.AggNode) int {
	if threads < 1 {
		threads = 1
	}
	if limit <= 0 || threads == 1 {
		return threads
	}
	rowEstimate := keyBytesEstimate(groupTypes(n)) + int64(len(n.Aggs))*48 + 64
	floor := int64(table.SegRows) * rowEstimate
	// Keep one floor's worth of headroom: the flat estimate is exact for
	// the states themselves but covers none of the chunk buffers, spill
	// block buffers or resident shed thresholds sharing the budget, and
	// filling the limit to the byte with unspillable state flips the
	// hard floor at the slightest timing skew.
	w := int(limit/floor) - 1
	if w < 1 {
		w = 1
	}
	if w > threads {
		w = threads
	}
	return w
}

// FindAggregate returns the first hash aggregation in the plan, if any
// (EXPLAIN consults it for the worker-clamp NOTE).
func FindAggregate(node plan.Node) *plan.AggNode {
	if n, ok := node.(*plan.AggNode); ok {
		return n
	}
	for _, c := range node.Children() {
		if n := FindAggregate(c); n != nil {
			return n
		}
	}
	return nil
}

// workerRows reports rows accumulated per build worker (test hook).
func (a *aggOp) workerRows() []int64 {
	out := make([]int64, len(a.tables))
	for i, t := range a.tables {
		out[i] = t.rows
	}
	return out
}

// mergeGroups reports groups merged per finish worker on the spilled
// path (test hook; nil when the finish ran in memory).
func (a *aggOp) mergeGroups() []int64 {
	if a.fin == nil {
		return nil
	}
	return a.fin.mergeGroups
}

// packAggPos packs a (sequence, row) pair into one ordered int64. The
// 16-bit row field must hold any morsel row index (bounded by
// table.SegRows) and any per-chunk row index (bounded by
// vector.ChunkCapacity — the window operator's extend path); the
// compile-time guards below fail if either bound outgrows it.
func packAggPos(seq, row int) int64 { return int64(seq)<<16 | int64(row) }

var (
	_ [1<<16 - table.SegRows]struct{}
	_ [1<<16 - vector.ChunkCapacity]struct{}
)

// mergeAccumulator folds src into dst. DISTINCT accumulators hold only
// their value sets, so merging is a plain set union (finish folds the
// union in sorted-key order). DOUBLE subtotals are concatenated, not
// summed — foldSubF orders them by morsel afterwards.
func mergeAccumulator(spec plan.AggSpec, dst, src *accumulator) {
	if src.distinct != nil {
		if dst.distinct == nil {
			dst.distinct = src.distinct
			dst.distBytes = src.distBytes
		} else {
			for k := range src.distinct {
				if _, ok := dst.distinct[k]; !ok {
					dst.distinct[k] = struct{}{}
					dst.distBytes += int64(len(k)) + 16
				}
			}
		}
		return
	}
	dst.count += src.count
	dst.sumI += src.sumI
	dst.subF = append(dst.subF, src.subF...)
	if src.bestSet {
		if !dst.bestSet {
			dst.best = src.best
			dst.bestSet = true
		} else {
			c := types.Compare(src.best, dst.best)
			if (spec.Func == "max" && c > 0) || (spec.Func == "min" && c < 0) {
				dst.best = src.best
			}
		}
	}
}
