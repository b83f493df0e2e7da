package exec

import (
	"sort"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// aggState is the accumulator for one group.
type aggState struct {
	groupKey []types.Value // materialized group column values
	accs     []accumulator
	// firstPos is the packed (morsel, row) position where the group was
	// first seen; emission orders the merged groups by it: first-seen
	// order of the input stream, whatever worker saw the group.
	firstPos int64
	// touch is seq+1 of the last morsel that updated the group. A state
	// touched by the in-flight morsel is never spilled: spilling it would
	// split that morsel's DOUBLE subtotal across two partials and change
	// the reduction tree (see agg_spill.go).
	touch int64
	// accounted is the budget charged beyond the flat per-group estimate
	// (per-morsel DOUBLE subtotals, DISTINCT sets).
	accounted int64
}

// extraBytes estimates the state's accumulator growth beyond the flat
// per-group estimate.
func (st *aggState) extraBytes() int64 {
	var n int64
	for j := range st.accs {
		acc := &st.accs[j]
		n += int64(len(acc.subF))*16 + acc.distBytes
	}
	return n
}

// accumulator is one aggregate's running state.
//
// DOUBLE sums are morsel-wise two-level reductions: rows of one morsel
// accumulate into curF, which folds into sumF at the morsel boundary (a
// lone table, which sees the morsels in order) or is retained per
// morsel and folded in morsel order at the merge. Either way it is the
// exact same floating-point reduction tree, so results are
// bit-identical at every thread count despite FP addition being
// non-associative.
type accumulator struct {
	count     int64
	sumI      int64
	sumF      float64
	curF      float64     // in-progress per-chunk DOUBLE subtotal
	curMorsel int64       // 1 + seq of curF's chunk; 0 = no pending subtotal
	subF      []fsub      // retained per-morsel subtotals (aggTable.retain)
	best      types.Value // min/max
	bestSet   bool
	// distinct (non-nil for DISTINCT aggregates) holds the encoded set
	// of values seen; no scalar state accumulates until finish, which
	// folds the set in sorted-key order. That makes worker partials
	// mergeable by plain set union, and the fold order — hence the
	// DOUBLE reduction tree — deterministic at every thread count.
	// distBytes tracks the set's estimated footprint for the budget.
	distinct  map[string]struct{}
	distBytes int64
}

// fsub is one morsel's DOUBLE subtotal.
type fsub struct {
	seq int64
	sum float64
}

// addF accumulates a DOUBLE value seen in chunk seq.
func (a *accumulator) addF(v float64, seq int64, retain bool) {
	if a.curMorsel != seq+1 {
		a.flushF(retain)
		a.curMorsel = seq + 1
	}
	a.curF += v
}

// flushF finishes the pending per-morsel subtotal: folding it into sumF
// (a lone table: arrival order == morsel order) or retaining it for the
// ordered merge.
func (a *accumulator) flushF(retain bool) {
	if a.curMorsel == 0 {
		return
	}
	if retain {
		a.subF = append(a.subF, fsub{seq: a.curMorsel - 1, sum: a.curF})
	} else {
		a.sumF += a.curF
	}
	a.curF = 0
	a.curMorsel = 0
}

// foldSubF folds the retained per-morsel subtotals into sumF in morsel
// order — the reduction a lone table performs as it goes.
func (a *accumulator) foldSubF() {
	if len(a.subF) == 0 {
		return
	}
	sort.Slice(a.subF, func(i, j int) bool { return a.subF[i].seq < a.subF[j].seq })
	for _, s := range a.subF {
		a.sumF += s.sum
	}
	a.subF = nil
}

// aggOp is the hash aggregation pipeline breaker: each worker of the
// source accumulates into its own thread-local partitioned hash table
// (no sharing, no locks on the hot path), and the partials are merged
// once when the source drains. Every group records the packed
// (seq, row) position of its first appearance; merging keeps the
// minimum, and emission orders by it — the first-seen group order of the
// input stream at every worker count. DISTINCT aggregates accumulate
// only their per-group value sets, which merge by set union and fold
// deterministically at finish. Accumulation is vectorized: group states
// are resolved for a whole chunk first, then each aggregate runs a tight
// typed loop over the chunk (the per-value switch is hoisted out of the
// row loop).
//
// Under an enforced memory budget the workers spill partitions to
// sorted state runs and the finish phase merges resident partials with
// the runs partition-by-partition across ctx.Threads workers (see
// agg_spill.go) — the memory envelope stays bounded at every worker
// count.
type aggOp struct {
	src  source
	node *plan.AggNode

	tables []*aggTable
	fin    *aggFinish
	built  bool
}

func newAggOp(src source, n *plan.AggNode) *aggOp {
	return &aggOp{src: src, node: n}
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
	err := a.src.consume(ctx, workers, ctx.Prof.Slot(a.node), func(w int) sinkFunc {
		t := newAggTable(ctx, a.node, workers)
		a.tables = append(a.tables, t)
		return func(seq int, chunk *vector.Chunk) error {
			return t.accumulate(ctx, seq, chunk)
		}
	})
	if err != nil {
		return err
	}
	fin, err := finishAggTables(ctx, a.node, a.tables)
	if err != nil {
		return err
	}
	a.fin = fin
	return nil
}

func groupTypes(n *plan.AggNode) []types.Type {
	out := make([]types.Type, len(n.GroupBy))
	for i, g := range n.GroupBy {
		out[i] = g.Type()
	}
	return out
}

// updateAggChunk accumulates one aggregate over a whole chunk with the
// type/function dispatch hoisted out of the row loop. seq identifies
// the chunk's position in the source's stream; retain keeps DOUBLE
// subtotals per seq for the ordered merge (aggTable.retain).
func updateAggChunk(spec plan.AggSpec, j int, states []*aggState, arg *vector.Vector, seq int64, retain bool) {
	if spec.Arg == nil { // count(*)
		for _, st := range states {
			st.accs[j].count++
		}
		return
	}
	if spec.Distinct {
		for r, st := range states {
			updateAgg(spec, &st.accs[j], arg, r)
		}
		return
	}
	allValid := arg.Valid.AllValid()
	switch spec.Func {
	case "count":
		if allValid {
			for _, st := range states {
				st.accs[j].count++
			}
			return
		}
		for r, st := range states {
			if arg.Valid.IsValid(r) {
				st.accs[j].count++
			}
		}
	case "sum", "avg":
		switch arg.Type {
		case types.Integer:
			for r, st := range states {
				if allValid || arg.Valid.IsValid(r) {
					acc := &st.accs[j]
					acc.count++
					acc.sumI += int64(arg.I32[r])
				}
			}
		case types.BigInt, types.Timestamp:
			for r, st := range states {
				if allValid || arg.Valid.IsValid(r) {
					acc := &st.accs[j]
					acc.count++
					acc.sumI += arg.I64[r]
				}
			}
		case types.Double:
			for r, st := range states {
				if allValid || arg.Valid.IsValid(r) {
					acc := &st.accs[j]
					acc.count++
					acc.addF(arg.F64[r], seq, retain)
				}
			}
		case types.Boolean:
			for r, st := range states {
				if allValid || arg.Valid.IsValid(r) {
					acc := &st.accs[j]
					acc.count++
					if arg.Bools[r] {
						acc.sumI++
					}
				}
			}
		}
	case "min", "max":
		for r, st := range states {
			updateAgg(spec, &st.accs[j], arg, r)
		}
	}
}

func updateAgg(spec plan.AggSpec, acc *accumulator, arg *vector.Vector, r int) {
	if spec.Arg == nil { // count(*)
		acc.count++
		return
	}
	if arg.IsNull(r) {
		return
	}
	if acc.distinct != nil {
		k := string(encodeKeyRow(nil, []*vector.Vector{arg}, r))
		if _, ok := acc.distinct[k]; !ok {
			acc.distinct[k] = struct{}{}
			acc.distBytes += int64(len(k)) + 16
		}
		return
	}
	switch spec.Func {
	case "count":
		acc.count++
	case "sum", "avg":
		acc.count++
		switch arg.Type {
		case types.Integer:
			acc.sumI += int64(arg.I32[r])
		case types.BigInt, types.Timestamp:
			acc.sumI += arg.I64[r]
		case types.Boolean:
			if arg.Bools[r] {
				acc.sumI++
			}
		case types.Double:
			acc.sumF += arg.F64[r]
		}
	case "min", "max":
		v := arg.Get(r)
		if !acc.bestSet {
			acc.best = v
			acc.bestSet = true
			return
		}
		c := types.Compare(v, acc.best)
		if (spec.Func == "max" && c > 0) || (spec.Func == "min" && c < 0) {
			acc.best = v
		}
	}
}

func finishAgg(spec plan.AggSpec, acc *accumulator) types.Value {
	if acc.distinct != nil {
		return finishDistinct(spec, acc)
	}
	switch spec.Func {
	case "count":
		return types.NewBigInt(acc.count)
	case "sum":
		if acc.count == 0 {
			return types.NewNull(spec.Type)
		}
		if spec.Type == types.Double {
			return types.NewDouble(acc.sumF)
		}
		return types.NewBigInt(acc.sumI)
	case "avg":
		if acc.count == 0 {
			return types.NewNull(types.Double)
		}
		total := acc.sumF
		if total == 0 && acc.sumI != 0 {
			total = float64(acc.sumI)
		} else if acc.sumI != 0 {
			total += float64(acc.sumI)
		}
		return types.NewDouble(total / float64(acc.count))
	case "min", "max":
		if !acc.bestSet {
			return types.NewNull(spec.Type)
		}
		return acc.best
	default:
		return types.NewNull(spec.Type)
	}
}

// finishDistinct folds a DISTINCT aggregate's value set. The fold walks
// the encoded keys in sorted order — any fixed order works for
// count/min/max, and for DOUBLE sums it pins the reduction tree, so the
// result is identical no matter which workers collected which values.
func finishDistinct(spec plan.AggSpec, acc *accumulator) types.Value {
	if len(acc.distinct) == 0 {
		if spec.Func == "count" {
			return types.NewBigInt(0)
		}
		return types.NewNull(spec.Type)
	}
	if spec.Func == "count" {
		return types.NewBigInt(int64(len(acc.distinct)))
	}
	keys := make([]string, 0, len(acc.distinct))
	for k := range acc.distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	argType := spec.Arg.Type()
	var (
		sumI int64
		sumF float64
		best types.Value
	)
	for i, k := range keys {
		v := decodeValueKey(k, argType)
		switch spec.Func {
		case "sum", "avg":
			switch argType {
			case types.Double:
				sumF += v.F64
			case types.Boolean:
				if v.Bool {
					sumI++
				}
			default:
				sumI += v.I64
			}
		case "min", "max":
			if i == 0 {
				best = v
				continue
			}
			c := types.Compare(v, best)
			if (spec.Func == "max" && c > 0) || (spec.Func == "min" && c < 0) {
				best = v
			}
		}
	}
	n := int64(len(acc.distinct))
	switch spec.Func {
	case "sum":
		if spec.Type == types.Double {
			return types.NewDouble(sumF)
		}
		return types.NewBigInt(sumI)
	case "avg":
		total := sumF
		if argType != types.Double {
			total = float64(sumI)
		}
		return types.NewDouble(total / float64(n))
	case "min", "max":
		return best
	default:
		return types.NewNull(spec.Type)
	}
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
