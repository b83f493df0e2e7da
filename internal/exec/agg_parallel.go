package exec

import (
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/vector"
)

// AggWorkersAdmitted reports how many parallel accumulation workers an
// enforced memory budget admits for this aggregation. States touched by
// the morsel a worker is accumulating can never spill, so each worker
// pins room for SegRows groups (every morsel row may open one) that
// spilling cannot reclaim; admitting only the workers the budget has
// that room for keeps the unspillable total inside it instead of
// letting reservation hard-fail mid-query. The clamp binds only when
// the budget is within a few morsels' worth of states. EXPLAIN uses the
// same formula to surface the clamp.
func AggWorkersAdmitted(limit int64, threads int, n *plan.AggNode) int {
	if threads < 1 {
		threads = 1
	}
	if limit <= 0 || threads == 1 {
		return threads
	}
	// What a store holding one morsel of all-new groups is charged: its
	// per-slot columns and table buckets, plus arena keys at a nominal 16
	// bytes per VARCHAR.
	st := newGroupStore(n, true)
	floor := st.bytesAt(table.SegRows, 0)
	if !st.fixed {
		for _, t := range st.keyTypes {
			floor += int64(table.SegRows) * int64(1+max(keyWidth(t), 4+16))
		}
	}
	// A table keeps room for a whole morsel of new groups at all times
	// (aggTable.makeRoom), so the floor is held by every worker, not just
	// in the worst case. Admit the workers whose share of the budget
	// (aggTable.softCap: limit / 2·workers) covers it; the other half
	// stays for DISTINCT sets and DOUBLE leaves of in-flight morsels,
	// spill block buffers and whatever else shares the pool.
	w := int(limit / (2 * floor))
	if w < 1 {
		w = 1
	}
	if w > threads {
		w = threads
	}
	return w
}

// FindAggregate returns the first hash aggregation in the plan, if any
// (EXPLAIN consults it for its memory_limit NOTEs).
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
