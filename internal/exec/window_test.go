package exec

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// mkWindowNode builds
//
//	row_number() OVER (PARTITION BY v % 7 ORDER BY v % 97),
//	sum(v)       OVER (same spec),
//	lag(v)       OVER (same spec)
//
// over the single-column fact table. The tie-heavy order key makes the
// hidden input-position tiebreak decide placements, and lag reads
// across those ties — any nondeterminism in the sorted order shows up
// immediately.
func mkWindowNode(t *testing.T, n int, mgr *txn.Manager) *plan.WindowNode {
	t.Helper()
	entry := buildFactTable(t, mgr, n)
	col := func() expr.Expr { return &expr.ColRef{Idx: 0, Typ: types.BigInt} }
	mod := func(m int64) expr.Expr {
		return &expr.Arith{Op: expr.OpMod, L: col(), R: &expr.Const{Val: types.NewBigInt(m)}, Typ: types.BigInt}
	}
	return &plan.WindowNode{
		Child:       &plan.ScanNode{Table: entry, Columns: []int{0}},
		PartitionBy: []expr.Expr{mod(7)},
		OrderBy:     []plan.SortKey{{Expr: mod(97)}},
		Funcs: []plan.WindowFunc{
			{Func: "row_number", Type: types.BigInt, Name: "rn"},
			{Func: "sum", Arg: col(), Type: types.BigInt, Name: "s"},
			{Func: "lag", Arg: col(), Offset: 1, Default: types.NewNull(types.BigInt), Type: types.BigInt, Name: "l"},
		},
	}
}

func renderWindow(t *testing.T, node plan.Node, ctx *Context) string {
	t.Helper()
	op, err := Build(node, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*windowOp); !ok {
		t.Fatalf("built %T, want *windowOp", op)
	}
	out := ""
	for _, c := range collectAll(t, ctx, op) {
		for r := 0; r < c.Len(); r++ {
			out += fmt.Sprint(c.Row(r), ";")
		}
	}
	return out
}

// TestParallelWindowMatchesSequential: the window over per-worker sorted
// runs, evaluated in its merge ranges, must be bit-identical — values
// and row order — to the single-threaded operator.
func TestParallelWindowMatchesSequential(t *testing.T) {
	mgr := txn.NewManager(nil)
	node := mkWindowNode(t, 30_000, mgr)
	want := renderWindow(t, node, &Context{Txn: mgr.Begin(), Threads: 1})
	for _, threads := range []int{2, 3, 8} {
		got := renderWindow(t, node, &Context{Txn: mgr.Begin(), Threads: threads})
		if got != want {
			t.Fatalf("threads=%d window diverges:\n got: %.200s\nwant: %.200s", threads, got, want)
		}
	}
}

// TestParallelWindowSpillDifferential: a tiny sort budget forces every
// worker's window sorter to spill runs; the merged result must equal
// the unconstrained one and all pool reservations must drain.
func TestParallelWindowSpillDifferential(t *testing.T) {
	mgr := txn.NewManager(nil)
	node := mkWindowNode(t, 40_000, mgr)
	want := renderWindow(t, node, &Context{Txn: mgr.Begin(), Threads: 1})
	for _, threads := range []int{1, 4} {
		pool := buffer.NewPool(0, nil)
		ctx := &Context{Txn: mgr.Begin(), Threads: threads, Pool: pool,
			SortBudget: 32 << 10, TmpDir: t.TempDir()}
		got := renderWindow(t, node, ctx)
		if got != want {
			t.Fatalf("threads=%d spilling window diverges", threads)
		}
		if used := pool.Used(); used != 0 {
			t.Fatalf("threads=%d: %d bytes still reserved after drain", threads, used)
		}
	}
}

// TestParallelWindowEarlyClose: a limit above the window abandons the
// stream mid-partition; Close must cancel the pipeline and merge-range
// workers without deadlocking or leaking reservations.
func TestParallelWindowEarlyClose(t *testing.T) {
	mgr := txn.NewManager(nil)
	node := mkWindowNode(t, 20_000, mgr)
	limited := &plan.LimitNode{Child: node, Limit: 5}
	op, err := Build(limited, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(0, nil)
	ctx := &Context{Txn: mgr.Begin(), Threads: 4, Pool: pool, SortBudget: 16 << 10, TmpDir: t.TempDir()}
	chunks := collectAll(t, ctx, op)
	if rows := countRows(chunks); rows != 5 {
		t.Fatalf("limit over parallel window: %d rows, want 5", rows)
	}
	if used := pool.Used(); used != 0 {
		t.Fatalf("pool leak after early close: %d bytes", used)
	}
}

// TestParallelWindowErrorPropagates: a failing partition expression
// inside a worker must surface as the query error at every thread count
// and leave no goroutines stuck.
func TestParallelWindowErrorPropagates(t *testing.T) {
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, 10_000)
	col := func() expr.Expr { return &expr.ColRef{Idx: 0, Typ: types.BigInt} }
	node := &plan.WindowNode{
		Child: &plan.ScanNode{Table: entry, Columns: []int{0}},
		PartitionBy: []expr.Expr{&expr.Arith{Op: expr.OpMod, L: col(),
			R: &expr.Arith{Op: expr.OpSub, L: col(), R: col(), Typ: types.BigInt}, Typ: types.BigInt}},
		Funcs: []plan.WindowFunc{{Func: "row_number", Type: types.BigInt, Name: "rn"}},
	}
	for _, threads := range []int{1, 4} {
		op, err := Build(node, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Threads: threads}
		if _, err := Collect(ctx, op); err == nil {
			t.Fatalf("threads=%d: modulo by zero in partition key did not error", threads)
		}
	}
}

// TestWindowFrameEdgeCases drives the frame evaluator directly over one
// partition: empty frames, frames past the partition edge, and the
// peers-inclusive default frame.
func TestWindowFrameEdgeCases(t *testing.T) {
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, 10)
	col := func() expr.Expr { return &expr.ColRef{Idx: 0, Typ: types.BigInt} }
	frame := func(startOff, endOff int64, startPrec, endPrec bool) plan.WindowFrame {
		return plan.WindowFrame{Set: true, Rows: true,
			Start: plan.FrameBound{Offset: startOff, Preceding: startPrec},
			End:   plan.FrameBound{Offset: endOff, Preceding: endPrec}}
	}
	cases := []struct {
		frame plan.WindowFrame
		want  []string // sum(v) per row v=0..9 ordered by v
	}{
		{ // 2 FOLLOWING .. 3 FOLLOWING: empty at the tail
			frame(2, 3, false, false),
			[]string{"5", "7", "9", "11", "13", "15", "17", "9", "NULL", "NULL"},
		},
		{ // 3 PRECEDING .. 2 PRECEDING: empty at the head
			frame(3, 2, true, true),
			[]string{"NULL", "NULL", "0", "1", "3", "5", "7", "9", "11", "13"},
		},
		{ // 0 PRECEDING .. 0 FOLLOWING: exactly the current row
			frame(0, 0, true, false),
			[]string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"},
		},
	}
	for ci, tc := range cases {
		node := &plan.WindowNode{
			Child:   &plan.ScanNode{Table: entry, Columns: []int{0}},
			OrderBy: []plan.SortKey{{Expr: col()}},
			Frame:   tc.frame,
			Funcs:   []plan.WindowFunc{{Func: "sum", Arg: col(), Type: types.BigInt, Name: "s"}},
		}
		op, err := Build(node, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Threads: 1}
		var got []string
		for _, c := range collectAll(t, ctx, op) {
			for r := 0; r < c.Len(); r++ {
				got = append(got, c.Cols[1].Get(r).String())
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("case %d: got %v, want %v", ci, got, tc.want)
		}
	}
}

// TestParallelWindowMergePartitioned: with a PARTITION BY, the window's
// merge, partition cutting AND evaluation must run on the range workers;
// asserted via range row counters (1-CPU hosts can't show wall-clock
// speedup).
func TestParallelWindowMergePartitioned(t *testing.T) {
	mgr := txn.NewManager(nil)
	assertWindowRanges(t, mkWindowNode(t, 30_000, mgr), mgr, 8, 30_000)
}

// assertWindowRanges drains a window at the given thread count and
// checks that at least two merge ranges evaluated rows, rows in all.
func assertWindowRanges(t *testing.T, node plan.Node, mgr *txn.Manager, threads, rows int) {
	t.Helper()
	op, err := Build(node, nil)
	if err != nil {
		t.Fatal(err)
	}
	wp, ok := op.(*windowOp)
	if !ok {
		t.Fatalf("built %T, want *windowOp", op)
	}
	ctx := &Context{Txn: mgr.Begin(), Threads: threads}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		c, err := op.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		total += c.Len()
	}
	counts := wp.mergeRows()
	op.Close(ctx)
	if total != rows {
		t.Fatalf("drained %d rows, want %d", total, rows)
	}
	if counts == nil {
		t.Fatal("window merge did not partition (PartitionMerge declined)")
	}
	nonzero := 0
	var sum int64
	for _, n := range counts {
		if n > 0 {
			nonzero++
		}
		sum += n
	}
	if nonzero < 2 {
		t.Fatalf("threads=%d: window merge+cut+eval ran on %d ranges (range rows %v), want >= 2", threads, nonzero, counts)
	}
	if sum != int64(rows) {
		t.Fatalf("range workers evaluated %d rows total, want %d (%v)", sum, rows, counts)
	}
}

// TestWindowBenchmarkShapeEvaluatesOnRanges: the benchmark's window —
// row_number() and a DOUBLE sum over PARTITION BY an 8-valued VARCHAR,
// ORDER BY qty DESC, id — splits its merge into ranges at two threads,
// so its partitions are evaluated on both workers.
func TestWindowBenchmarkShapeEvaluatesOnRanges(t *testing.T) {
	const rows = 30_000
	mgr := txn.NewManager(nil)
	entry := &catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "id", Type: types.BigInt}, {Name: "region", Type: types.Varchar},
		{Name: "qty", Type: types.BigInt}, {Name: "price", Type: types.Double}}}
	entry.Data = table.New(entry.Types(), nil)
	tx := mgr.Begin()
	regions := []string{"north", "south", "east", "west", "emea", "apac", "latam", "anz"}
	c := vector.NewChunk(entry.Types())
	for i := 0; i < rows; i++ {
		c.AppendRow(types.NewBigInt(int64(i)), types.NewVarchar(regions[i*7%8]),
			types.NewBigInt(int64(i*31%100)+1), types.NewDouble(float64(i*17%1000)*0.37))
		if c.Len() == vector.ChunkCapacity || i == rows-1 {
			if err := entry.Data.Append(tx, c); err != nil {
				t.Fatal(err)
			}
			c = vector.NewChunk(entry.Types())
		}
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	col := func(i int, typ types.Type) expr.Expr { return &expr.ColRef{Idx: i, Typ: typ} }
	order := []plan.SortKey{{Expr: col(2, types.BigInt), Desc: true}, {Expr: col(0, types.BigInt)}}
	node := &plan.WindowNode{
		Child:       &plan.ScanNode{Table: entry, Columns: []int{0, 1, 2, 3}},
		PartitionBy: []expr.Expr{col(1, types.Varchar)},
		OrderBy:     order,
		Funcs: []plan.WindowFunc{
			{Func: "row_number", Type: types.BigInt, Name: "rn"},
			{Func: "sum", Arg: col(3, types.Double), Type: types.Double, Name: "s"},
		},
	}
	assertWindowRanges(t, node, mgr, 2, rows)
}

// TestWindowOnePartitionWideFrameMatchesSequential: a window with one
// huge partition (empty PARTITION BY) and a wide general frame is
// evaluated by the serial merge's cursor as one partition, sliced into
// ChunkCapacity output chunks; values and chunks must be identical at
// every thread count.
func TestWindowOnePartitionWideFrameMatchesSequential(t *testing.T) {
	const rows = 20_000
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, rows)
	col := func() expr.Expr { return &expr.ColRef{Idx: 0, Typ: types.BigInt} }
	mod := func(m int64) expr.Expr {
		return &expr.Arith{Op: expr.OpMod, L: col(), R: &expr.Const{Val: types.NewBigInt(m)}, Typ: types.BigInt}
	}
	node := &plan.WindowNode{
		Child:   &plan.ScanNode{Table: entry, Columns: []int{0}},
		OrderBy: []plan.SortKey{{Expr: mod(97)}},
		// General (non-growing) wide frame: an O(n*width) rescan.
		Frame: plan.WindowFrame{Set: true, Rows: true,
			Start: plan.FrameBound{Offset: 100, Preceding: true},
			End:   plan.FrameBound{Offset: 100}},
		Funcs: []plan.WindowFunc{
			{Func: "row_number", Type: types.BigInt, Name: "rn"},
			{Func: "rank", Type: types.BigInt, Name: "rk"},
			{Func: "sum", Arg: col(), Type: types.BigInt, Name: "s"},
			{Func: "min", Arg: col(), Type: types.BigInt, Name: "m"},
		},
	}
	want := renderWindow(t, node, &Context{Txn: mgr.Begin(), Threads: 1})
	for _, threads := range []int{2, 8} {
		got := renderWindow(t, node, &Context{Txn: mgr.Begin(), Threads: threads})
		if got != want {
			t.Fatalf("threads=%d huge-partition eval diverges:\n got: %.200s\nwant: %.200s", threads, got, want)
		}
	}
}
