package exec

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// buildFactTable appends n rows of (v BIGINT) with v = row index.
func buildFactTable(t *testing.T, mgr *txn.Manager, n int) *catalog.Table {
	t.Helper()
	entry := &catalog.Table{Name: "t", Columns: []catalog.Column{{Name: "v", Type: types.BigInt}}}
	entry.Data = table.New(entry.Types(), nil)
	tx := mgr.Begin()
	c := vector.NewChunk(entry.Types())
	for v := 0; v < n; v++ {
		c.AppendRow(types.NewBigInt(int64(v)))
		if c.Len() == vector.ChunkCapacity {
			if err := entry.Data.Append(tx, c); err != nil {
				t.Fatal(err)
			}
			c = vector.NewChunk(entry.Types())
		}
	}
	if c.Len() > 0 {
		if err := entry.Data.Append(tx, c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	return entry
}

func collectAll(t *testing.T, ctx *Context, op Operator) []*vector.Chunk {
	t.Helper()
	chunks, err := Collect(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	return chunks
}

// TestParallelScanPreservesOrder: the ordered merge on the scheduler
// must reproduce the inline (one-worker) chunk stream exactly for a
// filtered, projected scan.
func TestParallelScanPreservesOrder(t *testing.T) {
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, 20*int(vector.ChunkCapacity)+321)
	node := plan.Node(&plan.ProjectNode{
		Child: &plan.FilterNode{
			Child: &plan.ScanNode{Table: entry, Columns: []int{0}},
			Cond: &expr.Compare{Op: expr.CmpEq,
				L: &expr.Arith{Op: expr.OpMod, L: &expr.ColRef{Idx: 0, Typ: types.BigInt}, R: &expr.Const{Val: types.NewBigInt(3)}, Typ: types.BigInt},
				R: &expr.Const{Val: types.NewBigInt(0)}},
		},
		Exprs: []expr.Expr{&expr.Arith{Op: expr.OpMul, L: &expr.ColRef{Idx: 0, Typ: types.BigInt}, R: &expr.Const{Val: types.NewBigInt(2)}, Typ: types.BigInt}},
		Names: []string{"doubled"},
	})

	render := func(threads int) string {
		op, err := Build(node, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := op.(*pipelineOp); !ok {
			t.Fatalf("built %T, want *pipelineOp", op)
		}
		ctx := &Context{Txn: mgr.Begin(), Threads: threads}
		out := ""
		for _, c := range collectAll(t, ctx, op) {
			out += fmt.Sprint(c.Cols[0].I64[:c.Len()], "|")
		}
		return out
	}
	want := render(1)
	for _, threads := range []int{2, 3, 8} {
		if got := render(threads); got != want {
			t.Fatalf("threads=%d stream diverges:\n got: %.200s\nwant: %.200s", threads, got, want)
		}
	}
}

// TestParallelAggMatchesSequential: worker-local partial aggregates
// must merge to the one-worker aggregate's exact output, including the
// first-seen group emission order.
func TestParallelAggMatchesSequential(t *testing.T) {
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, 50_000)
	mkNode := func() plan.Node {
		return &plan.AggNode{
			Child:   &plan.ScanNode{Table: entry, Columns: []int{0}},
			GroupBy: []expr.Expr{&expr.Arith{Op: expr.OpMod, L: &expr.ColRef{Idx: 0, Typ: types.BigInt}, R: &expr.Const{Val: types.NewBigInt(37)}, Typ: types.BigInt}},
			Names:   []string{"g"},
			Aggs: []plan.AggSpec{
				{Func: "count", Type: types.BigInt, Name: "n"},
				{Func: "sum", Arg: &expr.ColRef{Idx: 0, Typ: types.BigInt}, Type: types.BigInt, Name: "s"},
				{Func: "min", Arg: &expr.ColRef{Idx: 0, Typ: types.BigInt}, Type: types.BigInt, Name: "lo"},
				{Func: "max", Arg: &expr.ColRef{Idx: 0, Typ: types.BigInt}, Type: types.BigInt, Name: "hi"},
			},
		}
	}
	render := func(threads int) string {
		op, err := Build(mkNode(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := op.(*aggOp); !ok {
			t.Fatalf("built %T, want *aggOp", op)
		}
		ctx := &Context{Txn: mgr.Begin(), Threads: threads}
		out := ""
		for _, c := range collectAll(t, ctx, op) {
			for r := 0; r < c.Len(); r++ {
				out += fmt.Sprint(c.Row(r), ";")
			}
		}
		return out
	}
	want := render(1)
	for _, threads := range []int{2, 4} {
		if got := render(threads); got != want {
			t.Fatalf("threads=%d agg diverges:\n got: %.200s\nwant: %.200s", threads, got, want)
		}
	}
}

// TestParallelScanEarlyClose: a limit above a parallel scan abandons
// the stream early; Close must cancel the workers without deadlocking.
func TestParallelScanEarlyClose(t *testing.T) {
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, 30_000)
	node := &plan.LimitNode{
		Child: &plan.ScanNode{Table: entry, Columns: []int{0}},
		Limit: 5,
	}
	op, err := Build(node, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Txn: mgr.Begin(), Threads: 4}
	chunks := collectAll(t, ctx, op)
	if rows := countRows(chunks); rows != 5 {
		t.Fatalf("limit over parallel scan: %d rows, want 5", rows)
	}
}

// TestParallelHashJoinMatchesSequential covers the partitioned build
// and the in-worker probe at several thread counts.
func TestParallelHashJoinMatchesSequential(t *testing.T) {
	join, mgr := buildJoinFixture(t, 9_000, 6_000)
	render := func(threads int) string {
		op, err := Build(join, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Threads: threads, JoinStrategy: JoinForceHash}
		out := ""
		for _, c := range collectAll(t, ctx, op) {
			for r := 0; r < c.Len(); r++ {
				out += fmt.Sprint(c.Row(r), ";")
			}
		}
		return out
	}
	want := render(1)
	for _, threads := range []int{2, 4} {
		if got := render(threads); got != want {
			t.Fatalf("threads=%d join diverges", threads)
		}
	}
}

// TestParallelAutoJoinStillFallsBack: with a tight memory budget the
// Auto strategy must still degrade to the merge join even when both
// children are parallel pipelines.
func TestParallelAutoJoinStillFallsBack(t *testing.T) {
	pool := buffer.NewPool(128<<10, nil)
	join, mgr := buildJoinFixture(t, 10, 50_000)
	op, err := Build(join, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Txn: mgr.Begin(), Pool: pool, Threads: 4, JoinStrategy: JoinAuto, TmpDir: t.TempDir()}
	chunks, err := Collect(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if rows := countRows(chunks); rows != 10 {
		t.Fatalf("fallback join: %d rows, want 10", rows)
	}
	// The abandoned hash join and the merge join must both have
	// returned their pool reservations.
	if used := pool.Used(); used != 0 {
		t.Fatalf("pool reservation leak after fallback: %d bytes still reserved", used)
	}
}

// TestProfileSinkTimeBookedToBreaker: a breaker's sink runs inside the
// source's workers, but with a profile slot its time is booked to the
// breaker's BusyNs and kept out of the scan leaf's — under the inline
// driver (one worker) and the scheduler driver (four) alike. The sink
// sleeps, so the two shares cannot be confused with scan work.
func TestProfileSinkTimeBookedToBreaker(t *testing.T) {
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, 20*int(vector.ChunkCapacity))
	scan := &plan.ScanNode{Table: entry, Columns: []int{0}}
	agg := &plan.AggNode{Child: scan, Aggs: []plan.AggSpec{{Func: "count", Type: types.BigInt, Name: "n"}}}
	const nap = 2 * time.Millisecond
	for _, threads := range []int{1, 4} {
		prof := NewProfiler(agg)
		src, err := buildSource(scan, prof)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Threads: threads, Prof: prof}
		if err := src.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var chunks atomic.Int64
		err = src.consume(ctx, src.workerCount(ctx), prof.Slot(agg), func(int) sinkFunc {
			return func(int, *vector.Chunk) error {
				time.Sleep(nap)
				chunks.Add(1)
				return nil
			}
		})
		src.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		slept := chunks.Load() * nap.Nanoseconds()
		breaker, leaf := prof.Slot(agg).BusyNs.Load(), prof.Slot(scan).BusyNs.Load()
		if chunks.Load() != 20 || prof.Slot(scan).Morsels.Load() != 20 {
			t.Fatalf("threads=%d: sink saw %d chunks, scan claimed %d morsels, want 20 each",
				threads, chunks.Load(), prof.Slot(scan).Morsels.Load())
		}
		if breaker < slept {
			t.Errorf("threads=%d: breaker busy %dns < %dns slept in its sink", threads, breaker, slept)
		}
		if leaf <= 0 || leaf >= slept {
			t.Errorf("threads=%d: scan busy %dns, want > 0 and without the %dns its sink slept", threads, leaf, slept)
		}
	}
}
