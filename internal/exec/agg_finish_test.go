package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// finishRun accumulates the chunks (chunk i is morsel i) round-robin into
// `tables` aggTables, finishes them and renders every emitted chunk, one
// string per chunk, so that chunk boundaries compare too. prep, when
// set, sees every table before it is fed. The finish is returned closed,
// for its counters.
func finishRun(ctx *Context, node *plan.AggNode, chunks []*vector.Chunk, tables int, prep func(*aggTable)) (out []string, fin *aggFinish, err error) {
	tbls := make([]*aggTable, tables)
	for i := range tbls {
		tbls[i] = newAggTable(ctx, node, tables, new(OpProfile))
		if prep != nil {
			prep(tbls[i])
		}
	}
	defer func() {
		for _, tbl := range tbls {
			tbl.close()
		}
	}()
	for seq, c := range chunks {
		if err := tbls[seq%tables].accumulate(ctx, seq, c); err != nil {
			return nil, nil, err
		}
	}
	if fin, err = finishAggTables(ctx, node, tbls); err != nil {
		return nil, nil, err
	}
	defer fin.close()
	for {
		c, err := fin.next()
		if err != nil || c == nil {
			return out, fin, err
		}
		var sb strings.Builder
		for r := 0; r < c.Len(); r++ {
			sb.WriteString(fmt.Sprint(c.Row(r), ";"))
		}
		out = append(out, sb.String())
	}
}

// finishShapes are the finish's three shapes over 40 morsels of the
// benchmark's columns (id, id - id%4, region, qty, price): the agg_hc
// query, whose groups never span a morsel, so two tables hold disjoint
// groups; a key every morsel meets, so every group is in both tables;
// and a DOUBLE sum beside a DISTINCT, whose leaves and sets fold too.
func finishShapes() []accumulateShape {
	hc := accumulateShapes(40 * vector.ChunkCapacity)[1]
	col := func(i int, t types.Type) expr.Expr { return &expr.ColRef{Idx: i, Typ: t} }
	mod := func(m int64) []expr.Expr {
		return []expr.Expr{&expr.Arith{Op: expr.OpMod, L: col(0, types.BigInt), R: &expr.Const{Val: types.NewBigInt(m)}, Typ: types.BigInt}}
	}
	return []accumulateShape{
		{name: "disjoint", chunks: hc.chunks, rows: hc.rows, node: hc.node},
		{name: "overlap", chunks: hc.chunks, rows: hc.rows, node: &plan.AggNode{GroupBy: mod(3000), Names: []string{"g"}, Aggs: hc.node.Aggs}},
		{name: "double_distinct", chunks: hc.chunks, rows: hc.rows, node: &plan.AggNode{GroupBy: mod(2000), Names: []string{"g"}, Aggs: []plan.AggSpec{
			{Func: "sum", Arg: col(4, types.Double), Type: types.Double},
			{Func: "count", Arg: col(3, types.BigInt), Distinct: true, Type: types.BigInt},
			{Func: "count", Type: types.BigInt}}}},
	}
}

// TestAggFinishFoldsWithoutSpilling: two tables under a budget that
// holds both stores — each table's share of it covers its store, so
// nothing sheds — but leaves almost nothing beside them, as when the
// pool also holds a scan's segments. Merging one store into the other
// would need the room of a second copy; the finish folds in place
// instead, so nothing spills, and values, order and chunk boundaries are
// those of the unbudgeted one-table run.
func TestAggFinishFoldsWithoutSpilling(t *testing.T) {
	for _, shape := range finishShapes() {
		t.Run(shape.name, func(t *testing.T) {
			want, _, err := finishRun(&Context{Threads: 1}, shape.node, shape.chunks, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			// What the two tables hold once accumulated, unbudgeted.
			var held [2]int64
			for i := range held {
				ctx := &Context{Threads: 1}
				tbl := newAggTable(ctx, shape.node, 2, new(OpProfile))
				for seq := i; seq < len(shape.chunks); seq += 2 {
					if err := tbl.accumulate(ctx, seq, shape.chunks[seq]); err != nil {
						t.Fatal(err)
					}
				}
				held[i] = tbl.reserved
				tbl.close()
			}
			limit := 4*max(held[0], held[1]) + 4096
			pool := buffer.NewPool(limit, nil)
			others := limit - held[0] - held[1] - 1024
			if err := pool.Reserve(others); err != nil {
				t.Fatal(err)
			}
			ctx := &Context{Threads: 1, Pool: pool, TmpDir: t.TempDir()}
			got, fin, err := finishRun(ctx, shape.node, shape.chunks, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n, b := ctx.Stats.AggSpillParts.Load(), ctx.Stats.AggSpillBytes.Load(); n != 0 || b != 0 {
				t.Fatalf("spilled %d partitions (%d bytes) under a budget that holds both stores", n, b)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%d chunks differ from the unbudgeted one-table run's %d:\n got: %.300v\nwant: %.300v", len(got), len(want), got, want)
			}
			if shape.name != "disjoint" && fin.folded == 0 {
				t.Fatal("no group folded across the tables; the fixture no longer overlaps them")
			}
			if used := pool.Used(); used != others {
				t.Fatalf("%d bytes reserved after close, want the %d others hold", used, others)
			}
		})
	}
}

// TestAggFinishResplits drives the re-split of a spilled partition with
// groupStore.hashFilter. With every group's hash collided to one value no
// re-split ever divides the partition, and the finish stops with an
// error at the 64-bit depth instead of looping; with only the top four
// bits collided (every group in partition 0) re-splits on the next four
// divide it, and the result is that of the unbudgeted run.
func TestAggFinishResplits(t *testing.T) {
	node := &plan.AggNode{GroupBy: []expr.Expr{&expr.ColRef{Idx: 0, Typ: types.BigInt}}, Names: []string{"id"},
		Aggs: []plan.AggSpec{{Func: "count", Type: types.BigInt}, {Func: "sum", Arg: &expr.ColRef{Idx: 1, Typ: types.BigInt}, Type: types.BigInt}}}
	var chunks []*vector.Chunk
	for m := 0; m < 30; m++ { // 3000 groups, 100 new ones per morsel
		c := vector.NewChunk([]types.Type{types.BigInt, types.BigInt})
		for r := 0; r < 100; r++ {
			c.AppendRow(types.NewBigInt(int64(m*100+r)), types.NewBigInt(int64(r)))
		}
		chunks = append(chunks, c)
	}
	want, _, err := finishRun(&Context{Threads: 1}, node, chunks, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(filter func(uint64) uint64, sortBudget int64) ([]string, *aggFinish, error) {
		pool := buffer.NewPool(64<<10, nil)
		ctx := &Context{Threads: 2, Pool: pool, SortBudget: sortBudget, TmpDir: t.TempDir()}
		got, fin, err := finishRun(ctx, node, chunks, 2, func(tbl *aggTable) { tbl.store.hashFilter = filter })
		if ctx.Stats.AggSpillParts.Load() == 0 {
			t.Fatal("a 64KB budget over 3000 groups spilled nothing")
		}
		if used := pool.Used(); used != 0 {
			t.Fatalf("%d bytes still reserved after close", used)
		}
		return got, fin, err
	}

	t0 := time.Now()
	_, _, err = run(func(uint64) uint64 { return 0x5555_0000_aaaa_0001 }, 8<<10)
	if !errors.Is(err, buffer.ErrOutOfMemory) || !strings.Contains(err.Error(), "64-bit") {
		t.Fatalf("constant hash: err = %v, want the 64-bit depth's out-of-memory error", err)
	}
	if d := time.Since(t0); d > 20*time.Second {
		t.Fatalf("constant hash: the re-splits took %v", d)
	}

	got, fin, err := run(func(h uint64) uint64 { return h &^ (0xf << 60) }, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if fin.reloaded != 1 || fin.depth < 1 || fin.depth > 4 {
		t.Fatalf("top four bits collided: %d partitions re-loaded, re-split %d times deep; want 1, split within the next four bits", fin.reloaded, fin.depth)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("top four bits collided: result differs from the unbudgeted run:\n got: %.300v\nwant: %.300v", got, want)
	}
}

// FuzzAggFinish checks the finish against the unbudgeted one-table run:
// keys drawn from the input as BIGINTs, VARCHARs and NULLs, a DOUBLE sum
// and a DISTINCT, accumulated into 1, 2 or 4 tables under a budget from
// 4KB to unlimited, optionally with the hash collided (constant, top four
// bits, four values). Values, order and chunk boundaries must match, or
// the budget must be refused outright; nothing else may fail.
func FuzzAggFinish(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, varchar bool, tables, budget, collide uint8) {
		keyType := types.BigInt
		if varchar {
			keyType = types.Varchar
		}
		colTypes := []types.Type{keyType, types.Double, types.BigInt}
		var chunks []*vector.Chunk
		c := vector.NewChunk(colTypes)
		for i := 0; i+2 < len(data) && i < 3*4096; i += 3 {
			k, v, d := data[i], data[i+1], data[i+2]
			key := types.NewNull(keyType)
			switch {
			case k == 0xff:
			case varchar:
				key = types.NewVarchar(strings.Repeat("k", int(k%5)) + fmt.Sprint(k))
			default:
				key = types.NewBigInt(int64(k) << 40)
			}
			c.AppendRow(key, types.NewDouble(float64(int8(v))/8), types.NewBigInt(int64(d%16)))
			if c.Len() >= 16+int(k%32) || i+5 >= len(data) {
				chunks = append(chunks, c)
				c = vector.NewChunk(colTypes)
			}
		}
		node := &plan.AggNode{GroupBy: []expr.Expr{&expr.ColRef{Idx: 0, Typ: keyType}}, Names: []string{"k"}, Aggs: []plan.AggSpec{
			{Func: "count", Type: types.BigInt},
			{Func: "sum", Arg: &expr.ColRef{Idx: 1, Typ: types.Double}, Type: types.Double},
			{Func: "count", Arg: &expr.ColRef{Idx: 2, Typ: types.BigInt}, Distinct: true, Type: types.BigInt}}}
		want, _, err := finishRun(&Context{Threads: 1}, node, chunks, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var pool *buffer.Pool
		if budget%9 != 0 {
			pool = buffer.NewPool(4096<<(budget%9-1), nil)
		}
		filters := []func(uint64) uint64{
			nil,
			func(uint64) uint64 { return 0x5555_0000_aaaa_0001 },
			func(h uint64) uint64 { return h &^ (0xf << 60) },
			func(h uint64) uint64 { return (h & 3) << 61 },
		}
		filter := filters[collide%4]
		ctx := &Context{Threads: 2, Pool: pool, TmpDir: t.TempDir()}
		got, _, err := finishRun(ctx, node, chunks, []int{1, 2, 4}[tables%3], func(tbl *aggTable) { tbl.store.hashFilter = filter })
		switch {
		case errors.Is(err, buffer.ErrOutOfMemory) && pool != nil:
			// The budget refused the in-flight morsels' groups, or (hash
			// collided to one value) a re-load at the 64-bit depth.
		case err != nil:
			t.Fatal(err)
		case fmt.Sprint(got) != fmt.Sprint(want):
			t.Fatalf("finish differs from the unbudgeted one-table run:\n got: %.400v\nwant: %.400v", got, want)
		}
		if pool != nil && pool.Used() != 0 {
			t.Fatalf("%d bytes still reserved after close", pool.Used())
		}
	})
}

// BenchmarkAggFinish measures the finish alone — finishAggTables and the
// emission of every group — after the accumulation it follows, reported
// per group: the agg_hc shape's disjoint groups in two tables, a key that
// puts every group in both tables, and the agg_hc shape spilled under a
// 4KB budget (its groups eight to a morsel, as 4KB needs).
func BenchmarkAggFinish(b *testing.B) {
	shapes := finishShapes()[:2]
	shapes[0].name, shapes[1].name = "disjoint_2t", "overlap_2t"
	hc := accumulateShapes(100 * vector.ChunkCapacity)[1]
	hc.name = "spilled_4KB"
	hc.node = &plan.AggNode{Names: []string{"g"}, Aggs: hc.node.Aggs, GroupBy: []expr.Expr{&expr.Arith{Op: expr.OpDiv,
		L: &expr.ColRef{Idx: 0, Typ: types.BigInt}, R: &expr.Const{Val: types.NewBigInt(128)}, Typ: types.BigInt}}}
	shapes = append(shapes, hc)
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			var groups, mallocs int64
			var ns time.Duration
			for range b.N {
				ctx := &Context{Threads: 2, TmpDir: b.TempDir()}
				if shape.name == "spilled_4KB" {
					ctx.Pool = buffer.NewPool(4<<10, nil)
				}
				tbls := []*aggTable{newAggTable(ctx, shape.node, 2, new(OpProfile)), newAggTable(ctx, shape.node, 2, new(OpProfile))}
				for seq, c := range shape.chunks {
					if err := tbls[seq%2].accumulate(ctx, seq, c); err != nil {
						b.Fatal(err)
					}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				t0 := time.Now()
				fin, err := finishAggTables(ctx, shape.node, tbls)
				if err != nil {
					b.Fatal(err)
				}
				for {
					c, err := fin.next()
					if err != nil {
						b.Fatal(err)
					}
					if c == nil {
						break
					}
				}
				ns += time.Since(t0)
				runtime.ReadMemStats(&after)
				groups += fin.groups
				mallocs += int64(after.Mallocs - before.Mallocs)
				fin.close()
				for _, tbl := range tbls {
					tbl.close()
				}
			}
			b.ReportMetric(float64(ns.Nanoseconds())/float64(groups), "ns/group")
			b.ReportMetric(float64(mallocs)/float64(groups), "allocs/group")
		})
	}
}
