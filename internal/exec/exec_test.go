package exec

import (
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

func valuesNode(vals ...int64) *plan.ValuesNode {
	n := &plan.ValuesNode{Cols: []plan.ColInfo{{Name: "v", Type: types.BigInt}}}
	for _, v := range vals {
		n.Rows = append(n.Rows, []types.Value{types.NewBigInt(v)})
	}
	return n
}

func collectInts(t *testing.T, ctx *Context, op Operator) []int64 {
	t.Helper()
	chunks, err := Collect(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for _, c := range chunks {
		for r := 0; r < c.Len(); r++ {
			out = append(out, c.Cols[0].I64[r])
		}
	}
	return out
}

func testCtx() *Context {
	return &Context{Txn: txn.NewManager(nil).Begin(), TmpDir: ""}
}

func TestValuesAndLimit(t *testing.T) {
	node := &plan.LimitNode{Child: valuesNode(1, 2, 3, 4, 5), Limit: 2, Offset: 1}
	op, _, err := Build(node)
	if err != nil {
		t.Fatal(err)
	}
	got := collectInts(t, testCtx(), op)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("limit/offset: %v", got)
	}
}

func TestUnionOperator(t *testing.T) {
	node := &plan.UnionAllNode{Inputs: []plan.Node{valuesNode(1), valuesNode(2, 3)}}
	op, _, err := Build(node)
	if err != nil {
		t.Fatal(err)
	}
	got := collectInts(t, testCtx(), op)
	if len(got) != 3 {
		t.Fatalf("union: %v", got)
	}
}

func TestFilterOperator(t *testing.T) {
	cond := &expr.Compare{Op: expr.CmpGt,
		L: &expr.ColRef{Idx: 0, Typ: types.BigInt},
		R: &expr.Const{Val: types.NewBigInt(2)}}
	node := &plan.FilterNode{Child: valuesNode(1, 2, 3, 4), Cond: cond}
	op, _, err := Build(node)
	if err != nil {
		t.Fatal(err)
	}
	got := collectInts(t, testCtx(), op)
	if len(got) != 2 || got[0] != 3 {
		t.Fatalf("filter: %v", got)
	}
}

// buildJoinFixture creates two single-column tables joined on v: the
// left holds values 1..leftN, the right 1..rightN, so the join yields
// min(leftN, rightN) rows.
func buildJoinFixture(t *testing.T, leftN, rightN int) (*plan.JoinNode, *txn.Manager) {
	t.Helper()
	mgr := txn.NewManager(nil)
	mk := func(name string, n int) *catalog.Table {
		entry := &catalog.Table{Name: name, Columns: []catalog.Column{{Name: "v", Type: types.BigInt}}}
		entry.Data = table.New(entry.Types(), nil)
		tx := mgr.Begin()
		c := vector.NewChunk(entry.Types())
		for v := 1; v <= n; v++ {
			c.AppendRow(types.NewBigInt(int64(v)))
			if c.Len() == vector.ChunkCapacity {
				if err := entry.Data.Append(tx, c); err != nil {
					t.Fatal(err)
				}
				c = vector.NewChunk(entry.Types())
			}
		}
		if err := entry.Data.Append(tx, c); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
		return entry
	}
	left := mk("l", leftN)
	right := mk("r", rightN)
	join := &plan.JoinNode{
		Left:      &plan.ScanNode{Table: left, TableAlias: "l", Columns: []int{0}},
		Right:     &plan.ScanNode{Table: right, TableAlias: "r", Columns: []int{0}},
		Type:      plan.JoinInner,
		LeftKeys:  []expr.Expr{&expr.ColRef{Idx: 0, Typ: types.BigInt}},
		RightKeys: []expr.Expr{&expr.ColRef{Idx: 0, Typ: types.BigInt}},
	}
	return join, mgr
}

func countRows(chunks []*vector.Chunk) int {
	rows := 0
	for _, c := range chunks {
		rows += c.Len()
	}
	return rows
}

// TestHashAndMergeJoinAgree: both strategies find the 2000 pairs, and
// both emit full chunks — the merge join's key groups share the output
// chunk of their sorted left chunk rather than emitting one chunk each.
func TestHashAndMergeJoinAgree(t *testing.T) {
	for _, strategy := range []JoinStrategy{JoinForceHash, JoinForceMerge} {
		join, mgr := buildJoinFixture(t, 3000, 2000)
		op, _, err := Build(join)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), JoinStrategy: strategy, TmpDir: t.TempDir()}
		chunks, err := Collect(ctx, op)
		if err != nil {
			t.Fatalf("strategy %v: %v", strategy, err)
		}
		if rows := countRows(chunks); rows != 2000 || len(chunks) != 2 {
			t.Fatalf("strategy %v: %d rows in %d chunks, want 2000 in 2", strategy, rows, len(chunks))
		}
	}
}

// TestMergeJoinCompareDoesNotAllocate: the merge loop compares the two
// cursors' keys once per step; it used to build two chunks, two column
// slices and a key literal for every one.
func TestMergeJoinCompareDoesNotAllocate(t *testing.T) {
	typs := []types.Type{types.BigInt, types.BigInt, types.Varchar, types.Double}
	side := func(k int64, s string, d float64) *mergeCursor {
		c := vector.NewChunk(typs)
		c.AppendRow(types.NewBigInt(0), types.NewBigInt(k), types.NewVarchar(s), types.NewDouble(d))
		return &mergeCursor{chunk: c, keys: []extsort.Key{{Col: 1}, {Col: 2}, {Col: 3}}}
	}
	l, r := side(7, "emea", 1.5), side(7, "emea", 2.5)
	if c := l.compare(r.chunk, r.row, r.keys); c >= 0 {
		t.Fatalf("compare = %d, want < 0 (third key decides)", c)
	}
	var sink int
	if allocs := testing.AllocsPerRun(200, func() { sink += l.compare(r.chunk, r.row, r.keys) }); allocs != 0 {
		t.Fatalf("compare allocates %.0f times per call", allocs)
	}
	_ = sink
}

func TestAutoJoinFallsBackUnderMemoryPressure(t *testing.T) {
	// The 50k-row build needs ~2MB with the hash table; a 128KB limit
	// forces the merge fallback, whose sorted runs spill to disk.
	pool := buffer.NewPool(128<<10, nil)
	join, mgr := buildJoinFixture(t, 10, 50_000)
	op, _, err := Build(join)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Txn: mgr.Begin(), Pool: pool, JoinStrategy: JoinAuto, TmpDir: t.TempDir()}
	chunks, err := Collect(ctx, op)
	if err != nil {
		t.Fatalf("auto join under pressure: %v", err)
	}
	if rows := countRows(chunks); rows != 10 {
		t.Fatalf("fallback join returned %d rows, want 10", rows)
	}
	if pool.Used() != 0 {
		t.Fatalf("pool leak after fallback: %d", pool.Used())
	}
}

// TestMergeJoinSpillIsCounted: the sorters of a merge join that an Auto
// join fell back to spill under the TestAutoJoinFallsBackUnderMemoryPressure
// budget, and their spill is booked like any sort's — into the query's
// account and the JOIN slot — at one worker and at four.
func TestMergeJoinSpillIsCounted(t *testing.T) {
	join, mgr := buildJoinFixture(t, 10, 50_000)
	for _, threads := range []int{1, 4} {
		pool := buffer.NewPool(128<<10, nil)
		op, slot, err := Build(join)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Txn: mgr.Begin(), Pool: pool, Threads: threads, TmpDir: t.TempDir()}
		chunks, err := Collect(ctx, op)
		if err != nil {
			t.Fatal(err)
		}
		if rows := countRows(chunks); rows != 10 || !slot.JoinFallback.Load() {
			t.Fatalf("threads=%d: %d rows, fallback=%v, want 10 rows from the merge join", threads, rows, slot.JoinFallback.Load())
		}
		if ctx.Stats.SortSpillBytes.Load() <= 0 || slot.SpillBytes.Load() <= 0 {
			t.Fatalf("threads=%d: sort_spill_bytes=%d, JOIN spill=%d, want both > 0", threads, ctx.Stats.SortSpillBytes.Load(), slot.SpillBytes.Load())
		}
		if used := pool.Used(); used != 0 {
			t.Fatalf("threads=%d: %d pool bytes still reserved", threads, used)
		}
	}
}

func TestLeftJoinUnderHardLimitErrors(t *testing.T) {
	// LEFT joins have no out-of-core fallback; under a hard limit the
	// budget violation must surface instead of silently overcommitting.
	pool := buffer.NewPool(64<<10, nil)
	join, mgr := buildJoinFixture(t, 10, 50_000)
	join.Type = plan.JoinLeft
	op, _, err := Build(join)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Txn: mgr.Begin(), Pool: pool, JoinStrategy: JoinAuto, TmpDir: t.TempDir()}
	_, err = Collect(ctx, op)
	if err == nil || !errors.Is(err, buffer.ErrOutOfMemory) {
		t.Fatalf("LEFT join under hard limit: %v", err)
	}
	if used := pool.Used(); used != 0 {
		t.Fatalf("the failed build left %d pool bytes reserved", used)
	}
}

func TestEncodeKeyRowDistinguishesNulls(t *testing.T) {
	v := vector.NewLen(types.BigInt, 2)
	v.I64[0] = 0
	v.SetNull(1)
	k0 := string(encodeKeyRow(nil, []*vector.Vector{v}, 0))
	k1 := string(encodeKeyRow(nil, []*vector.Vector{v}, 1))
	if k0 == k1 {
		t.Fatal("NULL and zero encode equally")
	}
}

// bare is the operator a profOp times, or op itself: Build times every
// operator that is not a source at its pull boundary.
func bare(op Operator) Operator {
	if p, ok := op.(*profOp); ok {
		return p.inner
	}
	return op
}
