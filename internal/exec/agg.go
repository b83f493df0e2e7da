package exec

import (
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// aggOp is the hash aggregation pipeline breaker: each worker of the
// source accumulates into its own thread-local partitioned hash table
// (no sharing, no locks on the hot path), and the partials are merged
// once when the source drains. Every group records the packed
// (seq, row) position of its first appearance; merging keeps the
// minimum, and emission orders by it — the first-seen group order of the
// input stream at every worker count. DISTINCT aggregates accumulate
// only their per-group value sets, which merge by set union and fold
// deterministically at finish. Accumulation is columnar end to end: a
// chunk's group columns are hashed a column at a time and resolved
// through the table's groupStore into a vector of state slots, then
// each aggregate runs one typed loop over its argument column against
// flat per-slot state columns (agg_store.go, agg_kernels.go).
//
// Under an enforced memory budget the workers spill partitions to state
// runs. The finish folds the resident partials in place and, only if
// something spilled, re-loads every partition by hash across
// ctx.Threads workers (see agg_spill.go) — the memory envelope stays
// bounded at every worker count.
type aggOp struct {
	src  source
	node *plan.AggNode
	slot *OpProfile

	tables []*aggTable
	fin    *aggFinish
	built  bool
}

func newAggOp(src source, n *plan.AggNode, slot *OpProfile) *aggOp {
	return &aggOp{src: src, node: n, slot: slot}
}

func (a *aggOp) Open(ctx *Context) error {
	a.tables = nil
	a.fin = nil
	a.built = false
	return a.src.Open(ctx)
}

func (a *aggOp) Next(ctx *Context) (*vector.Chunk, error) {
	if !a.built {
		if err := a.build(ctx); err != nil {
			return nil, err
		}
		a.built = true
	}
	return a.fin.next()
}

func (a *aggOp) build(ctx *Context) error {
	// The worker count (bounded by morsels) sizes each table's
	// proactive-shed share of the budget.
	workers := a.src.workerCount(ctx)
	// Budget floor: states touched by an in-flight morsel never spill,
	// so every worker must be able to hold one morsel's worth of
	// distinct groups resident. Clamp the worker count to what the
	// budget admits instead of letting reservation hard-fail (EXPLAIN
	// surfaces the clamp as a NOTE).
	if ctx.Pool != nil {
		if w := AggWorkersAdmitted(ctx.Pool.Limit(), ctx.Threads, a.node); w < workers {
			workers = w
		}
	}
	// mkSink runs on the coordinating goroutine, and the partials are
	// only read back after consume has joined every worker, so the
	// tables slice needs no locking.
	err := a.src.consume(ctx, workers, a.slot, func(w int) sinkFunc {
		t := newAggTable(ctx, a.node, workers, a.slot)
		a.tables = append(a.tables, t)
		return func(seq int, chunk *vector.Chunk) error {
			return t.accumulate(ctx, seq, chunk)
		}
	})
	if err != nil {
		return err
	}
	t0 := nanotime()
	fin, err := finishAggTables(ctx, a.node, a.tables)
	if err != nil {
		return err
	}
	a.fin = fin
	a.slot.AggGroups.Store(fin.groups)
	a.slot.AggFinishNs.Store(max(nanotime()-t0, 1))
	a.slot.AggFolded.Store(fin.folded)
	a.slot.AggReloadedParts.Store(fin.reloaded)
	a.slot.AggResplitDepth.Store(int64(fin.depth))
	return nil
}

func groupTypes(n *plan.AggNode) []types.Type {
	out := make([]types.Type, len(n.GroupBy))
	for i, g := range n.GroupBy {
		out[i] = g.Type()
	}
	return out
}

func (a *aggOp) Close(ctx *Context) {
	if a.fin != nil {
		a.fin.close()
		a.fin = nil
	}
	for _, t := range a.tables {
		t.close()
	}
	a.tables = nil
	a.src.Close(ctx)
}
