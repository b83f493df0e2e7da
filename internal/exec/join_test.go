package exec

import (
	"errors"
	"fmt"
	"runtime"
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

// TestJoinCloseMidStream: closing a join whose probe still runs on
// scheduler workers — a LIMIT above it, an error elsewhere in the tree —
// must stop those workers before the build side is dropped. Close used
// to nil the table first: the workers then indexed a nil slice (a panic
// on a pool goroutine, i.e. in the host's process), and the race
// detector reports the unsynchronized write either way.
func TestJoinCloseMidStream(t *testing.T) {
	join, mgr := buildJoinFixture(t, 40*vector.ChunkCapacity, 2000)
	pool := buffer.NewPool(0, nil)
	errDownstream := errors.New("downstream failed")
	for i := 0; i < 500; i++ {
		op, _, err := Build(join)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Pool: pool, Threads: 4, JoinStrategy: JoinForceHash}
		if i%2 == 0 { // the consumer stops pulling
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			if c, err := op.Next(ctx); err != nil || c == nil {
				t.Fatalf("first chunk: %v, %v", c, err)
			}
			op.Close(ctx)
		} else if err := Run(ctx, op, func(*vector.Chunk) error { return errDownstream }); err != errDownstream {
			t.Fatalf("Run: %v, want the downstream error", err)
		}
		if used := pool.Used(); used != 0 {
			t.Fatalf("iteration %d: %d pool bytes still reserved after Close", i, used)
		}
	}
}

// TestKeylessJoinReservesBuild: a join without keys materializes its
// build side through the same build as a hash join, so the pool sees it
// while the probe runs and gets it back on Close — and a budget too
// small for it never fails the query (best-effort, like a forced hash
// build).
func TestKeylessJoinReservesBuild(t *testing.T) {
	join, mgr := buildJoinFixture(t, 3000, 2500)
	join.Type, join.LeftKeys, join.RightKeys = plan.JoinCross, nil, nil
	for _, threads := range []int{1, 4} {
		pool := buffer.NewPool(0, nil)
		op, _, err := Build(join)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Pool: pool, Threads: threads}
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if c, err := op.Next(ctx); err != nil || c == nil {
			t.Fatalf("first chunk: %v, %v", c, err)
		}
		if want := int64(2500 * (8 + refOverhead)); pool.Used() != want {
			t.Fatalf("threads=%d: pool holds %d bytes during the probe, want the build side's %d", threads, pool.Used(), want)
		}
		op.Close(ctx)
		if used := pool.Used(); used != 0 {
			t.Fatalf("threads=%d: %d pool bytes still reserved after Close", threads, used)
		}

		tiny := buffer.NewPool(4<<10, nil)
		op, _, err = Build(join)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		err = Run(&Context{Txn: mgr.Begin(), Pool: tiny, Threads: threads}, op, func(c *vector.Chunk) error {
			rows += c.Len()
			return nil
		})
		if err != nil {
			t.Fatalf("threads=%d: cross join under a 4KB limit: %v", threads, err)
		}
		if rows != 3000*2500 {
			t.Fatalf("threads=%d: %d rows, want %d", threads, rows, 3000*2500)
		}
		if used := tiny.Used(); used != 0 {
			t.Fatalf("threads=%d: %d pool bytes still reserved under the tiny limit", threads, used)
		}
	}
}

// newTestTable commits a table of n rows, row(i) being row i.
func newTestTable(tb testing.TB, mgr *txn.Manager, name string, cols []catalog.Column, n int, row func(i int) []types.Value) *catalog.Table {
	tb.Helper()
	entry := &catalog.Table{Name: name, Columns: cols}
	entry.Data = table.New(entry.Types(), nil)
	tx := mgr.Begin()
	c := vector.NewChunk(entry.Types())
	for i := 0; i < n; i++ {
		c.AppendRow(row(i)...)
		if c.Len() == vector.ChunkCapacity || i == n-1 {
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

// scanAll scans every column of a table.
func scanAll(e *catalog.Table) *plan.ScanNode {
	cols := make([]int, len(e.Columns))
	for i := range cols {
		cols[i] = i
	}
	return &plan.ScanNode{Table: e, TableAlias: e.Name, Columns: cols}
}

// joinBenchFixture builds a probe and a build table of (k, v) rows, keyed
// by row number through probeKey and buildKey, and the inner join on k.
func joinBenchFixture(b testing.TB, keyType types.Type, probeN, buildN int, probeKey, buildKey func(i int) types.Value) (*plan.JoinNode, *txn.Manager) {
	b.Helper()
	mgr := txn.NewManager(nil)
	mk := func(name string, n int, key func(int) types.Value) *catalog.Table {
		cols := []catalog.Column{{Name: "k", Type: keyType}, {Name: "v", Type: types.BigInt}}
		return newTestTable(b, mgr, name, cols, n, func(i int) []types.Value { return []types.Value{key(i), types.NewBigInt(int64(i))} })
	}
	return &plan.JoinNode{
		Left:      scanAll(mk("probe", probeN, probeKey)),
		Right:     scanAll(mk("build", buildN, buildKey)),
		Type:      plan.JoinInner,
		LeftKeys:  []expr.Expr{&expr.ColRef{Idx: 0, Typ: keyType}},
		RightKeys: []expr.Expr{&expr.ColRef{Idx: 0, Typ: keyType}},
	}, mgr
}

// joinBenchShapes are the benchmark gate's join (10k-row unique BIGINT
// build, 100k-row probe, one match each), a duplicate-heavy build (100
// keys, 100 matches per probe row) and a VARCHAR key.
var joinBenchShapes = []struct {
	name           string
	keyType        types.Type
	probeN, buildN int
	probeKey       func(i int) types.Value
	buildKey       func(i int) types.Value
}{
	{"bigint_unique", types.BigInt, 100_000, 10_000,
		func(i int) types.Value { return types.NewBigInt(int64(i % 10_000)) },
		func(i int) types.Value { return types.NewBigInt(int64(i)) }},
	{"bigint_dup100", types.BigInt, 10_000, 10_000,
		func(i int) types.Value { return types.NewBigInt(int64(i % 100)) },
		func(i int) types.Value { return types.NewBigInt(int64(i % 100)) }},
	{"varchar_unique", types.Varchar, 100_000, 10_000,
		func(i int) types.Value { return types.NewVarchar(fmt.Sprintf("key-%06d", i%10_000)) },
		func(i int) types.Value { return types.NewVarchar(fmt.Sprintf("key-%06d", i)) }},
}

// buildOnce runs the hash join's build alone — drain the build side,
// reserve, order, index — at the given worker count.
func buildOnce(tb testing.TB, join *plan.JoinNode, mgr *txn.Manager, threads int) {
	right, err := buildSource(join.Right, mirror(join.Right))
	if err != nil {
		tb.Fatal(err)
	}
	h := newHashJoin(nil, right, join, new(OpProfile))
	ctx := &Context{Txn: mgr.Begin(), Threads: threads}
	if err := right.Open(ctx); err != nil {
		tb.Fatal(err)
	}
	if err := h.build(ctx); err != nil {
		tb.Fatal(err)
	}
	right.Close(ctx)
}

// BenchmarkJoinBuild measures the hash join's build alone in ns and
// allocations per build row, at one, two and four workers.
func BenchmarkJoinBuild(b *testing.B) {
	for _, s := range joinBenchShapes {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/threads=%d", s.name, threads), func(b *testing.B) {
				join, mgr := joinBenchFixture(b, s.keyType, 1, s.buildN, s.probeKey, s.buildKey)
				benchPerRow(b, s.buildN, func() { buildOnce(b, join, mgr, threads) })
			})
		}
	}
}

// TestJoinBuildAllocatesPerChunk: the build allocates per chunk and per
// table growth, never per row — no key arena, no per-key slice, no map
// entry — on every shape of BenchmarkJoinBuild.
func TestJoinBuildAllocatesPerChunk(t *testing.T) {
	for _, s := range joinBenchShapes {
		join, mgr := joinBenchFixture(t, s.keyType, 1, s.buildN, s.probeKey, s.buildKey)
		perRow := testing.AllocsPerRun(5, func() { buildOnce(t, join, mgr, 1) }) / float64(s.buildN)
		if perRow > 0.05 {
			t.Errorf("%s: %.3f allocations per build row, want <= 0.05", s.name, perRow)
		}
	}
}

// BenchmarkJoinProbe measures the probe alone — key hashing, lookup,
// candidate emission through the emitter — over pre-scanned probe chunks
// against a built table, in ns and allocations per probe row. The only
// allocations at steady state are the emitted chunks themselves.
func BenchmarkJoinProbe(b *testing.B) {
	for i, s := range joinBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			ctx, probe, ps := builtProbe(b, i)
			rows := 0
			emit := func(c *vector.Chunk) error { rows += c.Len(); return nil }
			benchPerRow(b, s.probeN, func() {
				for _, c := range probe {
					if err := ps.run(ctx, c, emit); err != nil {
						b.Fatal(err)
					}
				}
			})
			if rows == 0 {
				b.Fatal("probe emitted nothing")
			}
		})
	}
}

// builtProbe returns the probe side's chunks and a probe stage over the
// built table of one shape, timed into the join's slot the way Open
// attaches it.
func builtProbe(tb testing.TB, shape int) (*Context, []*vector.Chunk, stage) {
	s := joinBenchShapes[shape]
	join, mgr := joinBenchFixture(tb, s.keyType, s.probeN, s.buildN, s.probeKey, s.buildKey)
	ctx := &Context{Txn: mgr.Begin(), Threads: 1}
	left, err := buildSource(join.Left, mirror(join.Left))
	if err != nil {
		tb.Fatal(err)
	}
	probe, err := Collect(ctx, left)
	if err != nil {
		tb.Fatal(err)
	}
	right, err := buildSource(join.Right, mirror(join.Right))
	if err != nil {
		tb.Fatal(err)
	}
	h := newHashJoin(nil, right, join, new(OpProfile))
	if err := right.Open(ctx); err != nil {
		tb.Fatal(err)
	}
	defer right.Close(ctx)
	if err := h.build(ctx); err != nil {
		tb.Fatal(err)
	}
	ps := timedFactory(h.slot, h.newProbeStage)()
	bindStages([]stage{ps}, new(int64))
	return ctx, probe, ps
}

// TestJoinProbeAllocatesOnlyItsOutput: once the stage's scratch exists,
// probing a chunk of fixed-width keys allocates the chunks it emits and
// nothing else — no per-row boxing, no per-chunk candidate buffers.
func TestJoinProbeAllocatesOnlyItsOutput(t *testing.T) {
	ctx, probe, ps := builtProbe(t, 0)
	var out *vector.Chunk
	emitted := 0
	emit := func(c *vector.Chunk) error { out = c; emitted++; return nil }
	run := func() {
		if err := ps.run(ctx, probe[0], emit); err != nil {
			t.Fatal(err)
		}
	}
	run() // sizes the scratch
	emitted = 0
	got := testing.AllocsPerRun(50, run)
	perChunk := float64(emitted) / 51
	want := perChunk * testing.AllocsPerRun(50, func() { out = vector.NewChunk(out.Types()) })
	if perChunk != 1 || got > want {
		t.Fatalf("probing one chunk emits %.0f chunks and allocates %.0f times; its output alone is %.0f", perChunk, got, want)
	}
}

// benchPerRow times b.N calls of run and reports ns/row, allocs/row and
// B/row over the rows one call handles.
func benchPerRow(b *testing.B, rows int, run func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/row")
}

// probeFanoutFixture joins a 3000-row probe table (k BIGINT, d DOUBLE)
// whose every hundredth row carries key 7 with a 3000-row build table
// (k BIGINT, id BIGINT, e DOUBLE) of key 7 only: each matching probe row
// meets 3000 build rows, so a probe morsel emits about thirty chunks.
// e mixes magnitudes 1e12 apart, so a DOUBLE sum depends on where its
// subtotals start.
func probeFanoutFixture(t *testing.T) (*plan.JoinNode, *txn.Manager) {
	t.Helper()
	mgr := txn.NewManager(nil)
	probe := newTestTable(t, mgr, "p", []catalog.Column{{Name: "k", Type: types.BigInt}, {Name: "d", Type: types.Double}}, 3000, func(i int) []types.Value {
		k := int64(i)
		if i%100 == 0 {
			k = 7
		}
		return []types.Value{types.NewBigInt(k), types.NewDouble(float64(i%13) * 0.3)}
	})
	build := newTestTable(t, mgr, "b", []catalog.Column{{Name: "k", Type: types.BigInt}, {Name: "id", Type: types.BigInt}, {Name: "e", Type: types.Double}}, 3000, func(i int) []types.Value {
		return []types.Value{types.NewBigInt(7), types.NewBigInt(int64(i)), types.NewDouble(float64(i%97)*0.1 + float64(i%5)*1e12)}
	})
	key := &expr.ColRef{Idx: 0, Typ: types.BigInt}
	return &plan.JoinNode{
		Left:     scanAll(probe),
		Right:    scanAll(build),
		Type:     plan.JoinInner,
		LeftKeys: []expr.Expr{key}, RightKeys: []expr.Expr{key},
	}, mgr
}

// TestProbeSinkPositions: a breaker fed by a probe that emits several
// chunks per morsel sees one seq per chunk, in stream order. First-seen
// group order (build ids past the first chunk must not jump ahead of
// earlier rows), the DOUBLE subtotals, and the order of sort rows whose
// keys are all equal must match the same plan drained through opSource
// on one worker — the join's stream numbered by arrival.
func TestProbeSinkPositions(t *testing.T) {
	join, mgr := probeFanoutFixture(t)
	col := func(i int, typ types.Type) expr.Expr { return &expr.ColRef{Idx: i, Typ: typ} }
	agg := &plan.AggNode{
		Child:   join,
		GroupBy: []expr.Expr{&expr.Arith{Op: expr.OpMod, L: col(3, types.BigInt), R: &expr.Const{Val: types.NewBigInt(1500)}, Typ: types.BigInt}},
		Names:   []string{"g"},
		Aggs: []plan.AggSpec{
			{Func: "count", Type: types.BigInt, Name: "n"},
			{Func: "sum", Arg: col(4, types.Double), Type: types.Double, Name: "se"},
			{Func: "sum", Arg: col(1, types.Double), Type: types.Double, Name: "sd"},
		},
	}
	sort := &plan.SortNode{Child: join, Keys: []plan.SortKey{{Expr: col(2, types.BigInt)}}}
	render := func(op Operator, threads int) string {
		return renderChunks(collectAll(t, &Context{Txn: mgr.Begin(), Threads: threads}, op))
	}
	viaOpSource := func(node plan.Node) Operator {
		src, err := buildSource(join, mirror(join))
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := node.(*plan.AggNode); ok {
			return newAggOp(&opSource{Operator: src}, n, new(OpProfile))
		}
		return newSortOp(&opSource{Operator: src}, node.(*plan.SortNode), new(OpProfile))
	}
	for _, node := range []plan.Node{agg, sort} {
		want := render(viaOpSource(node), 1)
		for _, threads := range []int{1, 2, 4} {
			op, _, err := Build(node)
			if err != nil {
				t.Fatal(err)
			}
			if got := render(op, threads); got != want {
				t.Fatalf("%T threads=%d: the probe-fed breaker diverges from the opSource-fed one:\n got %.300s\nwant %.300s", node, threads, got, want)
			}
		}
	}

	// The fixture really emits several chunks per morsel, each under a seq
	// of its own.
	src, err := buildSource(join, mirror(join))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Txn: mgr.Begin(), Threads: 1}
	if err := src.Open(ctx); err != nil {
		t.Fatal(err)
	}
	last, maxK := -1, 0
	err = src.consume(ctx, 1, new(OpProfile), func(int) sinkFunc {
		return func(seq int, c *vector.Chunk) error {
			if seq <= last {
				return fmt.Errorf("seq %d after %d", seq, last)
			}
			last, maxK = seq, max(maxK, seq&(1<<chunkSeqBits-1))
			return nil
		}
	})
	src.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if maxK < 2 {
		t.Fatalf("a morsel emitted at most %d chunks, want >= 3", maxK+1)
	}

	// The counters fail instead of wrapping.
	if s, err := chunkSeq(3, 2); err != nil || s != 3<<chunkSeqBits|2 {
		t.Fatalf("chunkSeq(3, 2) = %d, %v", s, err)
	}
	if _, err := chunkSeq(3, 1<<chunkSeqBits); err == nil {
		t.Fatal("chunk counter overflow did not error")
	}
	if _, err := chunkSeq(1<<(47-chunkSeqBits), 0); err == nil {
		t.Fatal("morsel counter overflow did not error")
	}
}

// TestAggOverJoinAccumulatesOnWorkers: an aggregation above a join is
// fed by the probe on the probe source's workers — at four threads
// more than one of them accumulates.
func TestAggOverJoinAccumulatesOnWorkers(t *testing.T) {
	join, mgr := buildJoinFixture(t, 40*vector.ChunkCapacity, 3000)
	agg := &plan.AggNode{
		Child:   join,
		GroupBy: []expr.Expr{&expr.Arith{Op: expr.OpMod, L: &expr.ColRef{Idx: 1, Typ: types.BigInt}, R: &expr.Const{Val: types.NewBigInt(16)}, Typ: types.BigInt}},
		Names:   []string{"g"},
		Aggs:    []plan.AggSpec{{Func: "count", Type: types.BigInt, Name: "n"}},
	}
	op, _, err := Build(agg)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := bare(op).(*aggOp)
	if !ok {
		t.Fatalf("built %T, want *aggOp", op)
	}
	if _, ok := a.src.(*hashJoinOp); !ok {
		t.Fatalf("aggregation source is %T, want the join itself", a.src)
	}
	ctx := &Context{Txn: mgr.Begin(), Threads: 4}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := op.Next(ctx); err != nil {
		t.Fatal(err)
	}
	rows := a.workerRows()
	op.Close(ctx)
	busy := 0
	var total int64
	for _, n := range rows {
		if n > 0 {
			busy++
		}
		total += n
	}
	if busy < 2 || total != 3000 {
		t.Fatalf("join rows accumulated per worker %v, want >= 2 workers and 3000 rows", rows)
	}
}

// TestProfileProbeTimeBookedToJoin: a join's probe runs inside its probe
// source's workers, but its own time is booked to the join's BusyNs and
// kept out of the scan leaf's — at one worker and four. The probe
// sleeps, so the shares cannot be confused with scan work.
func TestProfileProbeTimeBookedToJoin(t *testing.T) {
	join, mgr := buildJoinFixture(t, 20*vector.ChunkCapacity, 10)
	scan := join.Left
	const nap = 2 * time.Millisecond
	for _, threads := range []int{1, 4} {
		prof := mirror(join)
		js, ss := prof, &prof.Children[0]
		src, err := buildSource(scan, ss)
		if err != nil {
			t.Fatal(err)
		}
		src.attachStages(timedFactory(js, func() stage { return sleepStage(nap) }))
		ctx := &Context{Txn: mgr.Begin(), Threads: threads}
		if err := src.Open(ctx); err != nil {
			t.Fatal(err)
		}
		err = src.consume(ctx, src.workerCount(ctx), new(OpProfile), func(int) sinkFunc {
			return func(int, *vector.Chunk) error { return nil }
		})
		src.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		slept := 20 * nap.Nanoseconds()
		if js.Chunks.Load() != 20 || js.Rows.Load() != 20*vector.ChunkCapacity {
			t.Fatalf("threads=%d: join counted %d chunks, %d rows, want 20 and %d", threads, js.Chunks.Load(), js.Rows.Load(), 20*vector.ChunkCapacity)
		}
		if js.BusyNs.Load() < slept {
			t.Errorf("threads=%d: join busy %dns < %dns slept in its probe", threads, js.BusyNs.Load(), slept)
		}
		if leaf := ss.BusyNs.Load(); leaf <= 0 || leaf >= slept {
			t.Errorf("threads=%d: scan busy %dns, want > 0 and without the %dns its probe slept", threads, leaf, slept)
		}
	}
}

// sleepStage passes every chunk on after a nap.
type sleepStage time.Duration

func (s sleepStage) run(_ *Context, c *vector.Chunk, emit func(*vector.Chunk) error) error {
	time.Sleep(time.Duration(s))
	return emit(c)
}
