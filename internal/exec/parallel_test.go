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
		op, _, err := Build(node)
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

// TestOrderedPipelineRunAhead: an ordered pipeline on the scheduler
// re-emits its morsels through an orderedStream. Its chunk stream equals
// the inline driver's; under a pool limit its worker states run past the
// free floor on pool reservations, park at their share and still emit
// in order; Close after one chunk retires every step and returns every
// reserved byte; and a failing morsel fails Next for good.
func TestOrderedPipelineRunAhead(t *testing.T) {
	const segs = 64
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, segs*int(vector.ChunkCapacity))
	v := &expr.ColRef{Idx: 0, Typ: types.BigInt}
	bigint := func(n int64) expr.Expr { return &expr.Const{Val: types.NewBigInt(n)} }
	// Every fourth morsel is filtered out whole: its batch is empty.
	keep := &expr.Compare{Op: expr.CmpNe,
		L: &expr.Arith{Op: expr.OpMod, L: &expr.Arith{Op: expr.OpDiv, L: v, R: bigint(int64(vector.ChunkCapacity)), Typ: types.BigInt}, R: bigint(4), Typ: types.BigInt},
		R: bigint(1)}
	open := func(cond expr.Expr, ctx *Context) *pipelineOp {
		t.Helper()
		op, _, err := Build(&plan.FilterNode{Child: &plan.ScanNode{Table: entry, Columns: []int{0}}, Cond: cond})
		if err != nil {
			t.Fatal(err)
		}
		p, ok := op.(*pipelineOp)
		if !ok {
			t.Fatalf("built %T, want *pipelineOp", op)
		}
		if err := p.Open(ctx); err != nil {
			t.Fatal(err)
		}
		return p
	}
	render := func(chunks []*vector.Chunk) string {
		out := ""
		for _, c := range chunks {
			out += fmt.Sprint(c.Cols[0].I64[:c.Len()], "|")
		}
		return out
	}
	// next reads one chunk; drain reads the rest.
	next := func(p *pipelineOp, ctx *Context) *vector.Chunk {
		t.Helper()
		c, err := p.Next(ctx)
		if err != nil || c == nil {
			t.Fatalf("Next: %v, %v", c, err)
		}
		return c
	}
	drain := func(p *pipelineOp, ctx *Context, chunks []*vector.Chunk) []*vector.Chunk {
		t.Helper()
		for {
			c, err := p.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if c == nil {
				return chunks
			}
			chunks = append(chunks, c)
		}
	}
	// retired checks that every step of p's stream has ended.
	retired := func(p *pipelineOp) {
		t.Helper()
		s := p.stream
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.live != 0 {
			t.Fatalf("%d of %d producers still live after Close", s.live, len(s.prods))
		}
	}

	ctx1 := &Context{Txn: mgr.Begin(), Threads: 1}
	p1 := open(keep, ctx1)
	want := render(drain(p1, ctx1, nil))
	p1.Close(ctx1)

	t.Run("matches_inline", func(t *testing.T) {
		ctx := &Context{Txn: mgr.Begin(), Threads: 4}
		p := open(keep, ctx)
		defer p.Close(ctx)
		if got := render(drain(p, ctx, nil)); got != want {
			t.Fatalf("threads=4 stream diverges:\n got: %.200s\nwant: %.200s", got, want)
		}
	})

	// A full morsel's batch is 8 KiB of BIGINTs: a 128 KiB pool gives
	// each of the 4 states a 16 KiB share of the 64 KiB sort budget, so
	// 4 states x (floor + 2) batches cannot hold the 63 morsels left
	// after the first: some state must park.
	const limit = 128 << 10
	t.Run("parks_in_order", func(t *testing.T) {
		pool := buffer.NewPool(limit, nil)
		ctx := &Context{Txn: mgr.Begin(), Threads: 4, Pool: pool}
		p := open(keep, ctx)
		defer p.Close(ctx)
		chunks := []*vector.Chunk{next(p, ctx)}
		parked := 0
		for w := range p.stream.prods {
			if _, _, done := settled(p.stream, w); !done {
				parked++
			}
		}
		if parked == 0 || pool.Used() == 0 {
			t.Fatalf("%d states parked holding %d reserved bytes; want parks past the floor", parked, pool.Used())
		}
		if got := render(drain(p, ctx, chunks)); got != want {
			t.Fatalf("parked stream diverges:\n got: %.200s\nwant: %.200s", got, want)
		}
		if used := pool.Used(); used != 0 {
			t.Fatalf("pool holds %d B after the drain", used)
		}
	})

	t.Run("close_after_one", func(t *testing.T) {
		pool := buffer.NewPool(limit, nil)
		const baseline = 4 << 10
		if err := pool.Reserve(baseline); err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Threads: 4, Pool: pool}
		p := open(keep, ctx)
		next(p, ctx)
		for w := range p.stream.prods {
			settled(p.stream, w)
		}
		if pool.Used() == baseline {
			t.Fatal("no state reserved a batch past the floor")
		}
		p.Close(ctx)
		retired(p)
		if used := pool.Used(); used != baseline {
			t.Fatalf("pool holds %d B after Close, want the baseline %d", used, baseline)
		}
	})

	t.Run("failing_morsel", func(t *testing.T) {
		// 10 / (v - 5000) divides by zero in morsel 4 only.
		fails := &expr.Compare{Op: expr.CmpGt,
			L: &expr.Arith{Op: expr.OpDiv, L: bigint(10), R: &expr.Arith{Op: expr.OpSub, L: v, R: bigint(5000), Typ: types.BigInt}, Typ: types.BigInt},
			R: bigint(0)}
		ctx := &Context{Txn: mgr.Begin(), Threads: 4}
		p := open(fails, ctx)
		var err error
		for err == nil {
			var c *vector.Chunk
			if c, err = p.Next(ctx); c == nil && err == nil {
				t.Fatal("stream ended without the morsel's error")
			}
		}
		if _, again := p.Next(ctx); again != err {
			t.Fatalf("second Next returned %v, want the first error %v", again, err)
		}
		p.Close(ctx)
		retired(p)
	})
}

// BenchmarkOrderedScan is the scan class's ordered root shape, SELECT
// id, qty, price FROM t WHERE qty > 98 AND price < 10.0, over
// windowBenchTable's 100k rows, drained through pipelineOp.Next at
// threads 1 (the inline driver) and 2 (the ordered stream): ns/row and
// allocs/row per scanned row.
func BenchmarkOrderedScan(b *testing.B) {
	const rows = 100_000
	mgr := txn.NewManager(nil)
	node := &plan.ScanNode{Table: windowBenchTable(b, mgr, rows), Columns: []int{0, 2, 3},
		Filter: &expr.Logic{Op: expr.OpAnd,
			L: &expr.Compare{Op: expr.CmpGt, L: windowBenchCol(1, types.BigInt), R: &expr.Const{Val: types.NewBigInt(98)}},
			R: &expr.Compare{Op: expr.CmpLt, L: windowBenchCol(2, types.Double), R: &expr.Const{Val: types.NewDouble(10.0)}}}}
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchPerRow(b, rows, func() {
				op, _, err := Build(node)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := op.(*pipelineOp); !ok {
					b.Fatalf("built %T, want *pipelineOp", op)
				}
				if _, err := Collect(&Context{Txn: mgr.Begin(), Threads: threads}, op); err != nil {
					b.Fatal(err)
				}
			})
		})
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
		op, _, err := Build(mkNode())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := bare(op).(*aggOp); !ok {
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
	op, _, err := Build(node)
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
// and the in-worker probe at several thread counts, and the merge join —
// forced, and an Auto join whose build a 128KB pool hands over — whose
// sorts run on the same workers.
func TestParallelHashJoinMatchesSequential(t *testing.T) {
	join, mgr := buildJoinFixture(t, 9_000, 6_000)
	for _, tc := range []struct {
		name     string
		strategy JoinStrategy
		limit    int64
	}{
		{"hash", JoinForceHash, 0},
		{"merge", JoinForceMerge, 0},
		{"auto_128KB", JoinAuto, 128 << 10},
	} {
		render := func(threads int) string {
			op, prof, err := Build(join)
			if err != nil {
				t.Fatal(err)
			}
			pool := buffer.NewPool(tc.limit, nil)
			ctx := &Context{Txn: mgr.Begin(), Pool: pool, Threads: threads, JoinStrategy: tc.strategy, TmpDir: t.TempDir()}
			out := ""
			for _, c := range collectAll(t, ctx, op) {
				out += fmt.Sprint("#", c.Len(), ";")
				for r := 0; r < c.Len(); r++ {
					out += fmt.Sprint(c.Row(r), ";")
				}
			}
			if fell := prof.JoinFallback.Load(); fell != (tc.limit > 0) {
				t.Fatalf("%s threads=%d: fallback=%v", tc.name, threads, fell)
			}
			if used := pool.Used(); used != 0 {
				t.Fatalf("%s threads=%d: %d pool bytes still reserved", tc.name, threads, used)
			}
			return out
		}
		want := render(1)
		for _, threads := range []int{2, 4} {
			if got := render(threads); got != want {
				t.Fatalf("%s threads=%d join diverges", tc.name, threads)
			}
		}
	}
}

// TestParallelAutoJoinStillFallsBack: with a tight memory budget the
// Auto strategy must still degrade to the merge join even when both
// children are parallel pipelines.
func TestParallelAutoJoinStillFallsBack(t *testing.T) {
	pool := buffer.NewPool(128<<10, nil)
	join, mgr := buildJoinFixture(t, 10, 50_000)
	op, _, err := Build(join)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Txn: mgr.Begin(), Pool: pool, Threads: 4, JoinStrategy: JoinAuto, TmpDir: t.TempDir()}
	hj := op.(*hashJoinOp)
	rows := 0
	err = Run(ctx, op, func(c *vector.Chunk) error {
		// The build handed over before the first row came out: it holds
		// nothing for the chunks it had kept.
		if held := hj.reserved.Load(); held != 0 {
			return fmt.Errorf("the handed-over build still holds %d pool bytes", held)
		}
		rows += c.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 10 || !hj.handedOver.Load() {
		t.Fatalf("fallback join: %d rows, handed over %v, want 10 rows from the merge join", rows, hj.handedOver.Load())
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
		prof := mirror(agg)
		src, err := buildSource(scan, &prof.Children[0])
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Threads: threads}
		if err := src.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var chunks atomic.Int64
		err = src.consume(ctx, src.workerCount(ctx), prof, func(int) sinkFunc {
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
		breaker, leaf := prof.BusyNs.Load(), prof.Children[0].BusyNs.Load()
		if chunks.Load() != 20 || prof.Children[0].Morsels.Load() != 20 {
			t.Fatalf("threads=%d: sink saw %d chunks, scan claimed %d morsels, want 20 each",
				threads, chunks.Load(), prof.Children[0].Morsels.Load())
		}
		if breaker < slept {
			t.Errorf("threads=%d: breaker busy %dns < %dns slept in its sink", threads, breaker, slept)
		}
		if leaf <= 0 || leaf >= slept {
			t.Errorf("threads=%d: scan busy %dns, want > 0 and without the %dns its sink slept", threads, leaf, slept)
		}
	}
}
