package exec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/extsort"
	"repro/internal/oracle"
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
	op, _, err := Build(node)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bare(op).(*windowOp); !ok {
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
	op, _, err := Build(limited)
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
		op, _, err := Build(node)
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
// partition: empty frames, frames past the partition edge, and offsets so
// large that adding them to a row index would wrap.
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
		{ // CURRENT ROW .. MaxInt64 FOLLOWING: the offset saturates at the tail
			plan.WindowFrame{Set: true, Rows: true, Start: plan.FrameBound{Current: true},
				End: plan.FrameBound{Offset: math.MaxInt64}},
			[]string{"45", "45", "44", "42", "39", "35", "30", "24", "17", "9"},
		},
		{ // MaxInt64 PRECEDING .. MaxInt64 FOLLOWING: the whole partition
			frame(math.MaxInt64, math.MaxInt64, true, false),
			[]string{"45", "45", "45", "45", "45", "45", "45", "45", "45", "45"},
		},
	}
	for ci, tc := range cases {
		node := &plan.WindowNode{
			Child:   &plan.ScanNode{Table: entry, Columns: []int{0}},
			OrderBy: []plan.SortKey{{Expr: col()}},
			Frame:   tc.frame,
			Funcs:   []plan.WindowFunc{{Func: "sum", Arg: col(), Type: types.BigInt, Name: "s"}},
		}
		op, _, err := Build(node)
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

// TestWindowStreamsInBoundedRows: over one 1M-row partition the cursor
// holds at most three chunks' worth of rows for row_number, a running
// sum, lag and lead(v, 3) — values written as the rows they depend on
// arrive, output slices leaving as they fill — and the whole partition
// for sum(v) OVER (), which is known only at the partition end. Both
// high-water marks show as held_rows on the WINDOW line.
func TestWindowStreamsInBoundedRows(t *testing.T) {
	const rows = 1_000_000
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, rows)
	v := func() expr.Expr { return &expr.ColRef{Idx: 0, Typ: types.BigInt} }
	streamed := &plan.WindowNode{
		Child:   &plan.ScanNode{Table: entry, Columns: []int{0}},
		OrderBy: []plan.SortKey{{Expr: v()}},
		Funcs: []plan.WindowFunc{
			{Func: "row_number", Type: types.BigInt, Name: "rn"},
			{Func: "sum", Arg: v(), Type: types.BigInt, Name: "s"},
			{Func: "lag", Arg: v(), Offset: 1, Default: types.NewNull(types.BigInt), Type: types.BigInt, Name: "lg"},
			{Func: "lead", Arg: v(), Offset: 3, Default: types.NewNull(types.BigInt), Type: types.BigInt, Name: "ld"},
		},
	}
	whole := &plan.WindowNode{
		Child: &plan.ScanNode{Table: entry, Columns: []int{0}},
		Funcs: []plan.WindowFunc{{Func: "sum", Arg: v(), Type: types.BigInt, Name: "s"}},
	}
	for _, tc := range []struct {
		node     *plan.WindowNode
		min, max int64
	}{
		{streamed, 1, 3 * vector.ChunkCapacity},
		{whole, rows, rows},
	} {
		op, prof, err := Build(tc.node)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Threads: 1}
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			c, err := op.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if c == nil {
				break
			}
			n += c.Len()
		}
		op.Close(ctx)
		held := prof.WindowHeldRows.Load()
		if n != rows || held < tc.min || held > tc.max {
			t.Fatalf("%s: %d rows, held_rows=%d, want %d rows and held_rows in [%d, %d]", tc.node.Explain(), n, held, rows, tc.min, tc.max)
		}
		t.Logf("%s: held_rows=%d", tc.node.Explain(), held)
		var sb strings.Builder
		prof.Snapshot().WriteTree(&sb, 0)
		if want := fmt.Sprintf("held_rows=%d", held); !strings.Contains(sb.String(), want) {
			t.Fatalf("EXPLAIN ANALYZE lacks %s:\n%s", want, sb.String())
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
	op, _, err := Build(node)
	if err != nil {
		t.Fatal(err)
	}
	wp, ok := bare(op).(*windowOp)
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
	node := windowBenchNode(windowBenchTable(t, mgr, rows), true, plan.WindowFrame{},
		plan.WindowFunc{Func: "row_number", Type: types.BigInt, Name: "rn"},
		plan.WindowFunc{Func: "sum", Arg: windowBenchCol(3, types.Double), Type: types.Double, Name: "s"})
	assertWindowRanges(t, node, mgr, 2, rows)
}

// windowBenchTable builds the benchmark's fact table t(id BIGINT, region
// VARCHAR, qty BIGINT, price DOUBLE): 8 regions, qty 1..100.
func windowBenchTable(tb testing.TB, mgr *txn.Manager, rows int) *catalog.Table {
	tb.Helper()
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
				tb.Fatal(err)
			}
			c = vector.NewChunk(entry.Types())
		}
	}
	if _, err := mgr.Commit(tx); err != nil {
		tb.Fatal(err)
	}
	return entry
}

func windowBenchCol(i int, typ types.Type) expr.Expr { return &expr.ColRef{Idx: i, Typ: typ} }

// windowBenchNode is the benchmark's window spec over windowBenchTable:
// [PARTITION BY region] ORDER BY qty DESC, id.
func windowBenchNode(entry *catalog.Table, partitioned bool, frame plan.WindowFrame, funcs ...plan.WindowFunc) *plan.WindowNode {
	n := &plan.WindowNode{
		Child:   &plan.ScanNode{Table: entry, Columns: []int{0, 1, 2, 3}},
		OrderBy: []plan.SortKey{{Expr: windowBenchCol(2, types.BigInt), Desc: true}, {Expr: windowBenchCol(0, types.BigInt)}},
		Frame:   frame,
		Funcs:   funcs,
	}
	if partitioned {
		n.PartitionBy = []expr.Expr{windowBenchCol(1, types.Varchar)}
	}
	return n
}

// BenchmarkWindow measures the whole window operator — extend, run sort,
// merge, cut and evaluation — over the benchmark's 100k-row fact table,
// in ns, allocations and bytes per input row, at threads 1 and 2. The
// shapes are the benchmark's window query (row_number and a running
// DOUBLE sum), lag/lead(3) beside a ROWS 2 PRECEDING AND 2 FOLLOWING
// sum, the benchmark query without PARTITION BY, and running min/max.
// The sort keys are payload columns, so the merge gathers the four
// payload columns and the hidden position only.
func BenchmarkWindow(b *testing.B) {
	const rows = 100_000
	mgr := txn.NewManager(nil)
	entry := windowBenchTable(b, mgr, rows)
	price, qty := windowBenchCol(3, types.Double), windowBenchCol(2, types.BigInt)
	rn := plan.WindowFunc{Func: "row_number", Type: types.BigInt, Name: "rn"}
	sum := plan.WindowFunc{Func: "sum", Arg: price, Type: types.Double, Name: "s"}
	sliding := plan.WindowFrame{Set: true, Rows: true,
		Start: plan.FrameBound{Offset: 2, Preceding: true}, End: plan.FrameBound{Offset: 2}}
	shapes := []struct {
		name string
		node *plan.WindowNode
	}{
		{"bench", windowBenchNode(entry, true, plan.WindowFrame{}, rn, sum)},
		{"lag_lead_rows2", windowBenchNode(entry, true, sliding,
			plan.WindowFunc{Func: "lag", Arg: price, Offset: 3, Default: types.NewNull(types.Double), Type: types.Double, Name: "lg"},
			plan.WindowFunc{Func: "lead", Arg: price, Offset: 3, Default: types.NewNull(types.Double), Type: types.Double, Name: "ld"},
			sum)},
		{"no_partition", windowBenchNode(entry, false, plan.WindowFrame{}, rn, sum)},
		{"min_max", windowBenchNode(entry, true, plan.WindowFrame{},
			plan.WindowFunc{Func: "min", Arg: price, Type: types.Double, Name: "mn"},
			plan.WindowFunc{Func: "max", Arg: qty, Type: types.BigInt, Name: "mx"})},
	}
	for _, sh := range shapes {
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/threads=%d", sh.name, threads), func(b *testing.B) {
				benchPerRow(b, rows, func() {
					op, _, err := Build(sh.node)
					if err != nil {
						b.Fatal(err)
					}
					chunks, err := Collect(&Context{Txn: mgr.Begin(), Threads: threads}, op)
					if err != nil {
						b.Fatal(err)
					}
					if n := countRows(chunks); n != rows {
						b.Fatalf("window returned %d of %d rows", n, rows)
					}
				})
			})
		}
	}
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

// windowFuzzOffsets are the frame and lag/lead offsets FuzzWindowStream
// draws from: small ones, ones around a merged chunk, and one that
// overflows a row index.
var windowFuzzOffsets = []int64{0, 1, 2, 3, 1023, 1025, 1500, math.MaxInt64}

// decodeWindowStream reads one FuzzWindowStream input: a window over rows
// (id BIGINT, k1, k2, a) whose key and argument types are BIGINT, DOUBLE
// or VARCHAR, with one function and frame, and the lengths of the chunks
// the cursor is fed. The bytes after the header are the value stream,
// cycled so that every row gets values.
func decodeWindowStream(data []byte) (*plan.WindowNode, [][]types.Value, []int) {
	b := fuzzBytes(data)
	colTypes := []types.Type{types.BigInt, types.Double, types.Varchar}
	h := b.next()
	k1, k2, at := colTypes[h%3], colTypes[h/3%3], colTypes[h/9%3]
	cols := []plan.ColInfo{{Name: "id", Type: types.BigInt}, {Name: "k1", Type: k1}, {Name: "k2", Type: k2}, {Name: "a", Type: at}}
	col := func(i int) expr.Expr { return &expr.ColRef{Idx: i, Typ: cols[i].Type} }
	node := &plan.WindowNode{Child: &plan.ValuesNode{Cols: cols}}

	shape := b.next()
	for i := 0; i < int(shape%3); i++ {
		node.PartitionBy = append(node.PartitionBy, col(1+i))
	}
	// Order keys: the key columns, the id, or id % 7 (an evaluated key).
	ordKeys := []expr.Expr{col(1), col(2), col(0),
		&expr.Arith{Op: expr.OpMod, L: col(0), R: &expr.Const{Val: types.NewBigInt(7)}, Typ: types.BigInt}}
	for i := 0; i < int(shape/3%3); i++ {
		dir := b.next()
		node.OrderBy = append(node.OrderBy, plan.SortKey{Expr: ordKeys[int(dir)%len(ordKeys)], Desc: dir&16 != 0, NullsFirst: dir&32 != 0})
	}

	fnb, offb := b.next(), b.next()
	fns := []string{"row_number", "rank", "dense_rank", "lag", "lead", "count", "count", "sum", "avg", "min", "max"}
	fn := plan.WindowFunc{Func: fns[int(fnb)%len(fns)], Name: "f", Type: types.BigInt}
	off := windowFuzzOffsets[int(offb)%len(windowFuzzOffsets)]
	switch fn.Func {
	case "lag", "lead":
		fn.Arg, fn.Offset, fn.Type = col(3), off, at
		fn.Default = types.NewNull(at)
	case "count":
		if fnb&16 != 0 {
			fn.Arg = col(3)
		}
	case "sum", "avg":
		fn.Arg = col(3)
		if at == types.Varchar {
			fn.Arg = col(0)
		}
		fn.Type = fn.Arg.Type()
		if fn.Func == "avg" {
			fn.Type = types.Double
		}
	case "min", "max":
		fn.Arg, fn.Type = col(3), at
	}
	node.Funcs = []plan.WindowFunc{fn}

	if fr := b.next(); len(node.OrderBy) > 0 && fr&1 != 0 {
		bound := func(sel byte, off int64) plan.FrameBound {
			switch sel % 4 {
			case 0:
				return plan.FrameBound{Unbounded: true, Preceding: true}
			case 1:
				return plan.FrameBound{Offset: off, Preceding: true}
			case 2:
				return plan.FrameBound{Current: true}
			default:
				return plan.FrameBound{Offset: off}
			}
		}
		endOff := windowFuzzOffsets[int(b.next())%len(windowFuzzOffsets)]
		node.Frame = plan.WindowFrame{Set: true, Rows: fr&2 != 0, Start: bound(fr>>2, off), End: bound(fr>>4, endOff)}
		if fr>>6 == 3 {
			node.Frame.End = plan.FrameBound{Unbounded: true}
		}
		if !node.Frame.Rows { // RANGE takes only UNBOUNDED and CURRENT ROW bounds
			for _, e := range []*plan.FrameBound{&node.Frame.Start, &node.Frame.End} {
				if !e.Unbounded {
					*e = plan.FrameBound{Current: true}
				}
			}
		}
	}

	n := int(b.bits(2)) % 2600
	lens := make([]int, 1+int(b.next()%8))
	for i := range lens {
		lens[i] = 1 + int(b.bits(2))%1200
	}
	rest := []byte(b)
	if len(rest) == 0 {
		rest = []byte{0}
	}
	vals := fuzzBytes(bytes.Repeat(rest, 40*n/len(rest)+1))
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.NewBigInt(int64(i)), fuzzKeyValue(&vals, k1), fuzzKeyValue(&vals, k2), fuzzKeyValue(&vals, at)}
	}
	return node, rows, lens
}

// chunkList replays chunks as a merge range would hand them over.
type chunkList []*vector.Chunk

func (l *chunkList) Next() (*vector.Chunk, error) {
	if len(*l) == 0 {
		return nil, nil
	}
	c := (*l)[0]
	*l = (*l)[1:]
	return c, nil
}

// streamWindow sorts rows the way windowOp does and streams the sorted
// rows through a partitionCutCursor in chunks of the given lengths
// (cycled), returning the output rows rendered.
func streamWindow(t *testing.T, node *plan.WindowNode, rows [][]types.Value, lens []int) []string {
	t.Helper()
	op := newWindowOp(nil, node, new(OpProfile))
	sorter := extsort.NewSorter(op.extTypes, op.keys, 0, "")
	payload := schemaTypes(node.Child.Schema())
	for base := 0; base < len(rows); base += vector.ChunkCapacity {
		c := vector.NewChunk(payload)
		for _, row := range rows[base:min(base+vector.ChunkCapacity, len(rows))] {
			c.AppendRow(row...)
		}
		ext, err := op.extend(base/vector.ChunkCapacity, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := sorter.Add(ext); err != nil {
			t.Fatal(err)
		}
	}
	it, err := sorter.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	sorted := vector.NewChunk(op.extTypes)
	for {
		c, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		for i, v := range sorted.Cols {
			v.AppendRange(c.Cols[i], 0, c.Len())
		}
		sorted.SetLen(sorted.Len() + c.Len())
	}
	var in chunkList
	for pos, k := 0, 0; pos < sorted.Len(); k++ {
		m := min(lens[k%len(lens)], sorted.Len()-pos)
		c := vector.NewChunk(op.extTypes)
		for i, v := range c.Cols {
			v.AppendRange(sorted.Cols[i], pos, m)
		}
		c.SetLen(m)
		in = append(in, c)
		pos += m
	}
	cur := newPartitionCutCursor(node, op.keys, &in, new(OpProfile))
	var out []string
	for {
		batch, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			return out
		}
		for _, c := range batch {
			if c.Len() == 0 || c.Len() > vector.ChunkCapacity {
				t.Fatalf("the cursor emitted a chunk of %d rows", c.Len())
			}
			for r := 0; r < c.Len(); r++ {
				out = append(out, renderRow(c.Row(r)))
			}
		}
	}
}

func renderRow(row []types.Value) string {
	s := make([]string, len(row))
	for i, v := range row {
		s[i] = v.String()
	}
	return strings.Join(s, "|")
}

// FuzzWindowStream: the streaming window cursor, fed the sorted rows in
// chunks of fuzzed lengths so that partition cuts, peer-group boundaries
// and frame edges land anywhere in a chunk, must return exactly the rows
// oracle.Window computes — for keys and arguments of every fuzzed type
// with NULLs, raw DOUBLE bits (±0, NaN payloads) and strings holding 0x00
// and 0xFF, one function and one frame at a time.
func FuzzWindowStream(f *testing.F) {
	rng := rand.New(rand.NewSource(26))
	for i, hdr := range [][]byte{
		{0, 1 + 3, 0, 0, 0, 0x20, 0x80}, // row_number by k1 ORDER BY k2
		{1, 1 + 3*2, 1, 2, 2, 7, 1, 0, 0x60, 0x9},
		{13, 1 + 3, 9, 4, 5, 0, 0x80, 0x5},      // lead(a, 5th offset)
		{5, 2 + 3, 0, 3, 6, 0, 0xa4, 0x9},       // lag
		{2, 0 + 3*2, 2, 0, 7, 1, 0x0b, 0, 0x20}, // sum, ROWS frame
		{8, 1 + 3, 3, 9, 3, 0x27, 4, 0x10, 0x8}, // min, ROWS frame
		{4, 1 + 3, 1, 10, 2, 0xf3, 0, 0x90, 0x9},
		{3, 2 + 3*2, 0, 17, 8, 0, 0xc9, 6, 0x50, 0x8}, // avg, RANGE frame
	} {
		seed := append(append([]byte(nil), hdr...), make([]byte, 300+40*i)...)
		rng.Read(seed[len(hdr):])
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		node, rows, lens := decodeWindowStream(data)
		want, err := oracle.Window(node, rows)
		if err != nil {
			t.Fatal(err)
		}
		got := streamWindow(t, node, rows, lens)
		if len(got) != len(want) {
			t.Fatalf("%s: the cursor returned %d rows, the oracle %d", node.Explain(), len(got), len(want))
		}
		for i, row := range want {
			if exp := renderRow(row); got[i] != exp {
				t.Fatalf("%s frame %+v: row %d is %s, the oracle's %s", node.Explain(), node.Frame, i, got[i], exp)
			}
		}
	})
}
