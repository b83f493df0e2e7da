package exec

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
)

// mkHavingPlan builds Project(Filter(Agg(Scan))) — the HAVING shape that
// strands a filter and a projection above the aggregation breaker.
func mkHavingPlan(t *testing.T, rows int) (plan.Node, *txn.Manager) {
	t.Helper()
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, rows)
	col := func() expr.Expr { return &expr.ColRef{Idx: 0, Typ: types.BigInt} }
	agg := &plan.AggNode{
		Child:   &plan.ScanNode{Table: entry, Columns: []int{0}},
		GroupBy: []expr.Expr{&expr.Arith{Op: expr.OpMod, L: col(), R: &expr.Const{Val: types.NewBigInt(53)}, Typ: types.BigInt}},
		Names:   []string{"g"},
		Aggs: []plan.AggSpec{
			{Func: "count", Type: types.BigInt, Name: "n"},
			{Func: "sum", Arg: col(), Type: types.BigInt, Name: "s"},
		},
	}
	filter := &plan.FilterNode{
		Child: agg,
		Cond: &expr.Compare{Op: expr.CmpGt,
			L: &expr.ColRef{Idx: 1, Typ: types.BigInt},
			R: &expr.Const{Val: types.NewBigInt(100)}},
	}
	proj := &plan.ProjectNode{
		Child: filter,
		Exprs: []expr.Expr{
			&expr.ColRef{Idx: 0, Typ: types.BigInt},
			&expr.Arith{Op: expr.OpMul, L: &expr.ColRef{Idx: 2, Typ: types.BigInt}, R: &expr.Const{Val: types.NewBigInt(2)}, Typ: types.BigInt},
		},
		Names: []string{"g", "s2"},
	}
	return proj, mgr
}

func renderPlan(t *testing.T, node plan.Node, ctx *Context) string {
	t.Helper()
	op, _, err := Build(node)
	if err != nil {
		t.Fatal(err)
	}
	if src, ok := op.(*opSource); !ok || len(src.stages) != 2 {
		t.Fatalf("built %T, want the aggregate's *opSource running HAVING and the projection", op)
	}
	out := ""
	for _, c := range collectAll(t, ctx, op) {
		for r := 0; r < c.Len(); r++ {
			out += fmt.Sprint(c.Row(r), ";")
		}
	}
	return out
}

// TestExchangeMatchesSequential: the stages over a breaker, run on the
// caller by its opSource, must reproduce the one-worker stream exactly
// when the breaker below runs on the scheduler.
func TestExchangeMatchesSequential(t *testing.T) {
	node, mgr := mkHavingPlan(t, 40_000)
	want := renderPlan(t, node, &Context{Txn: mgr.Begin(), Threads: 1})
	if want == "" {
		t.Fatal("fixture produced no rows")
	}
	for _, threads := range []int{2, 4, 8} {
		got := renderPlan(t, node, &Context{Txn: mgr.Begin(), Threads: threads})
		if got != want {
			t.Fatalf("threads=%d stages over the aggregate diverge:\n got: %.300s\nwant: %.300s", threads, got, want)
		}
	}
}

// TestExchangeAboveSort mirrors the planner shape of ORDER BY over a
// non-output column: a stripping projection above the sort breaker,
// which runs as a stage of the sort's opSource and must keep the sorted
// order intact.
func TestExchangeAboveSort(t *testing.T) {
	mgr := txn.NewManager(nil)
	node, _ := mkSortNode(t, 25_000, mgr)
	strip := &plan.ProjectNode{
		Child: node,
		Exprs: []expr.Expr{&expr.Arith{Op: expr.OpAdd,
			L: &expr.ColRef{Idx: 0, Typ: types.BigInt},
			R: &expr.Const{Val: types.NewBigInt(1)}, Typ: types.BigInt}},
		Names: []string{"v1"},
	}
	render := func(threads int) string {
		op, _, err := Build(strip)
		if err != nil {
			t.Fatal(err)
		}
		src, ok := op.(*opSource)
		if !ok {
			t.Fatalf("built %T, want *opSource", op)
		}
		if _, ok := bare(src.Operator).(*sortOp); !ok || len(src.stages) != 1 {
			t.Fatalf("opSource runs %d stages over %T, want one over *sortOp", len(src.stages), src.Operator)
		}
		out := ""
		for _, c := range collectAll(t, &Context{Txn: mgr.Begin(), Threads: threads}, op) {
			out += fmt.Sprint(c.Cols[0].I64[:c.Len()], "|")
		}
		return out
	}
	want := render(1)
	for _, threads := range []int{2, 8} {
		if got := render(threads); got != want {
			t.Fatalf("threads=%d diverges:\n got: %.200s\nwant: %.200s", threads, got, want)
		}
	}
}

// TestExchangeEarlyClose: a limit above the stages over an aggregate
// abandons the stream; Close must join the aggregation's workers without
// deadlocking.
func TestExchangeEarlyClose(t *testing.T) {
	node, mgr := mkHavingPlan(t, 60_000)
	limited := &plan.LimitNode{Child: node, Limit: 2}
	op, _, err := Build(limited)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Txn: mgr.Begin(), Threads: 4}
	chunks := collectAll(t, ctx, op)
	if rows := countRows(chunks); rows != 2 {
		t.Fatalf("limit over the stages: %d rows, want 2", rows)
	}
}

// TestExchangeErrorPropagates: a failing stage expression above a
// breaker must surface as the query error.
func TestExchangeErrorPropagates(t *testing.T) {
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, 20_000)
	col := func() expr.Expr { return &expr.ColRef{Idx: 0, Typ: types.BigInt} }
	agg := &plan.AggNode{
		Child:   &plan.ScanNode{Table: entry, Columns: []int{0}},
		GroupBy: []expr.Expr{&expr.Arith{Op: expr.OpMod, L: col(), R: &expr.Const{Val: types.NewBigInt(11)}, Typ: types.BigInt}},
		Names:   []string{"g"},
		Aggs:    []plan.AggSpec{{Func: "min", Arg: col(), Type: types.BigInt, Name: "lo"}},
	}
	proj := &plan.ProjectNode{
		Child: agg,
		// lo % (g - g) divides by zero for every group.
		Exprs: []expr.Expr{&expr.Arith{Op: expr.OpMod,
			L:   &expr.ColRef{Idx: 1, Typ: types.BigInt},
			R:   &expr.Arith{Op: expr.OpSub, L: &expr.ColRef{Idx: 0, Typ: types.BigInt}, R: &expr.ColRef{Idx: 0, Typ: types.BigInt}, Typ: types.BigInt},
			Typ: types.BigInt}},
		Names: []string{"boom"},
	}
	for _, threads := range []int{1, 4} {
		op, _, err := Build(proj)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Threads: threads}
		if _, err := Collect(ctx, op); err == nil {
			t.Fatalf("threads=%d: stage error did not propagate", threads)
		}
	}
}
