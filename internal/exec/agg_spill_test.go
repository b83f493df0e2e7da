package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/buffer"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// mkAggNode builds
//
//	SELECT v / div, count(*), sum(v), sum(v * 0.25), min(v), count(DISTINCT v % 17)
//	FROM t GROUP BY v / div
//
// over the single-column fact table: an integer sum, a DOUBLE sum (the
// reduction-tree-sensitive case) and a DISTINCT set all in one node.
// Dividing (rather than modding) the sequential v keeps the number of
// distinct groups per morsel bounded by SegRows/div — states the
// in-flight morsel touches can never spill, so a tiny budget must still
// exceed workers x (groups per morsel) x rowEstimate.
func mkAggNode(t *testing.T, n, div int, mgr *txn.Manager) *plan.AggNode {
	t.Helper()
	entry := buildFactTable(t, mgr, n)
	col := func() expr.Expr { return &expr.ColRef{Idx: 0, Typ: types.BigInt} }
	mod := func(m int64) expr.Expr {
		return &expr.Arith{Op: expr.OpMod, L: col(), R: &expr.Const{Val: types.NewBigInt(m)}, Typ: types.BigInt}
	}
	dbl := &expr.Arith{
		Op:  expr.OpMul,
		L:   &expr.CastExpr{X: col(), To: types.Double},
		R:   &expr.Const{Val: types.NewDouble(0.25)},
		Typ: types.Double,
	}
	grp := &expr.Arith{Op: expr.OpDiv, L: col(), R: &expr.Const{Val: types.NewBigInt(int64(div))}, Typ: types.BigInt}
	return &plan.AggNode{
		Child:   &plan.ScanNode{Table: entry, Columns: []int{0}},
		GroupBy: []expr.Expr{grp},
		Names:   []string{"g"},
		Aggs: []plan.AggSpec{
			{Func: "count", Type: types.BigInt, Name: "c"},
			{Func: "sum", Arg: col(), Type: types.BigInt, Name: "s"},
			{Func: "sum", Arg: dbl, Type: types.Double, Name: "sf"},
			{Func: "min", Arg: col(), Type: types.BigInt, Name: "m"},
			{Func: "count", Arg: mod(17), Distinct: true, Type: types.BigInt, Name: "cd"},
		},
	}
}

func renderAgg(t *testing.T, node plan.Node, ctx *Context) string {
	t.Helper()
	op, _, err := Build(node)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, c := range collectAll(t, ctx, op) {
		for r := 0; r < c.Len(); r++ {
			out += fmt.Sprint(c.Row(r), ";")
		}
	}
	return out
}

// TestAggSpillMatchesUnbudgeted: a budget tight enough to force
// multi-round spills must not change a single output bit — values, row
// order and DOUBLE reduction trees — at any thread count.
func TestAggSpillMatchesUnbudgeted(t *testing.T) {
	mgr := txn.NewManager(nil)
	node := mkAggNode(t, 60_000, 8, mgr)
	want := renderAgg(t, node, &Context{Txn: mgr.Begin(), Threads: 1, TmpDir: t.TempDir()})
	for _, threads := range []int{1, 2, 8} {
		pool := buffer.NewPool(1<<20, nil)
		ctx := &Context{Txn: mgr.Begin(), Threads: threads, Pool: pool, TmpDir: t.TempDir()}
		got := renderAgg(t, node, ctx)
		if got != want {
			t.Fatalf("threads=%d budgeted aggregation diverges:\n got: %.300s\nwant: %.300s", threads, got, want)
		}
		if threads > 1 && ctx.Stats.AggSpillParts.Load() == 0 {
			t.Fatalf("threads=%d: no partition spills under a 1MB budget over ~7500 groups", threads)
		}
		if used := pool.Used(); used != 0 {
			t.Fatalf("threads=%d: %d bytes still reserved after Close", threads, used)
		}
	}
}

// TestParAggSpillUsesWorkers: under an enforced budget the parallel
// aggregation must keep fanning out — the old engine degraded to one
// worker — and must take the spilled partition-merge finish. Asserted
// via worker row counters, as the merge split was in PR 4 (the dev
// container is 1-CPU, so wall clock proves nothing).
func TestParAggSpillUsesWorkers(t *testing.T) {
	const rows = 60_000
	mgr := txn.NewManager(nil)
	node := mkAggNode(t, rows, 8, mgr)
	op, _, err := Build(node)
	if err != nil {
		t.Fatal(err)
	}
	pa, ok := bare(op).(*aggOp)
	if !ok {
		t.Fatalf("built %T, want *aggOp", op)
	}
	pool := buffer.NewPool(1<<20, nil)
	ctx := &Context{Txn: mgr.Begin(), Threads: 8, Pool: pool, TmpDir: t.TempDir()}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	groups := 0
	for {
		c, err := op.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		groups += c.Len()
	}
	workerRows := pa.workerRows()
	mergeGroups := pa.mergeGroups()
	op.Close(ctx)
	if groups != 7500 {
		t.Fatalf("emitted %d groups, want 7500", groups)
	}
	busy := 0
	var total int64
	for _, n := range workerRows {
		if n > 0 {
			busy++
		}
		total += n
	}
	if busy < 2 {
		t.Fatalf("budgeted aggregation accumulated on %d workers (%v), want >= 2", busy, workerRows)
	}
	if total != rows {
		t.Fatalf("workers accumulated %d rows total, want %d (%v)", total, rows, workerRows)
	}
	if mergeGroups == nil {
		t.Fatal("finish took the in-memory path; expected the spilled partition merge")
	}
	mergeBusy, mergeTotal := 0, int64(0)
	for _, n := range mergeGroups {
		if n > 0 {
			mergeBusy++
		}
		mergeTotal += n
	}
	if mergeBusy < 2 {
		t.Fatalf("partition merge ran on %d finish workers (%v), want >= 2", mergeBusy, mergeGroups)
	}
	if mergeTotal != 7500 {
		t.Fatalf("finish workers merged %d groups, want 7500 (%v)", mergeTotal, mergeGroups)
	}
	if ctx.Stats.AggSpillParts.Load() == 0 {
		t.Fatal("no spill events recorded")
	}
}

// TestAggSpillEarlyCloseNoLeak: closing a budgeted aggregation before
// draining it must release every pool reservation and every spill-file
// fd — state runs and the finish phase's output-sorter runs alike
// (mirroring the PR 4 extsort early-close test).
func TestAggSpillEarlyCloseNoLeak(t *testing.T) {
	mgr := txn.NewManager(nil)
	node := mkAggNode(t, 60_000, 8, mgr)
	op, _, err := Build(node)
	if err != nil {
		t.Fatal(err)
	}
	pa := bare(op).(*aggOp)
	pool := buffer.NewPool(1<<20, nil)
	ctx := &Context{Txn: mgr.Begin(), Threads: 4, Pool: pool, TmpDir: t.TempDir()}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// One Next builds (accumulate + spill + merge) and emits the first
	// chunk; then abandon the stream.
	if _, err := op.Next(ctx); err != nil {
		t.Fatal(err)
	}
	var files []*os.File
	nruns := 0
	for _, tbl := range pa.tables {
		for p := range tbl.runs {
			nruns += len(tbl.runs[p])
		}
		if tbl.spillFile != nil {
			files = append(files, tbl.spillFile.File())
		}
	}
	if nruns == 0 || len(files) == 0 {
		t.Fatal("no state runs spilled; the fixture no longer exercises the spill path")
	}
	op.Close(ctx)
	if used := pool.Used(); used != 0 {
		t.Fatalf("early close leaked %d reserved bytes", used)
	}
	for _, f := range files {
		if err := f.Close(); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("state-run file still open after Close (close returned %v)", err)
		}
	}
}

// TestAggStateCodecRoundtrip: the spilled-state codec must preserve the
// exact slot contents — DOUBLE subtotal leaves bit for bit, DISTINCT
// sets, min/max values — across a round trip into another store.
func TestAggStateCodecRoundtrip(t *testing.T) {
	col := &expr.ColRef{Idx: 0, Typ: types.Double}
	node := &plan.AggNode{Aggs: []plan.AggSpec{
		{Func: "count", Type: types.BigInt},
		{Func: "sum", Arg: col, Type: types.Double},
		{Func: "min", Arg: col, Type: types.Double},
		{Func: "sum", Arg: col, Distinct: true, Type: types.Double},
	}}
	st := newGroupStore(node, true)
	st.rebuild(nil, 4, 0)
	slot, _ := st.probe(mix64(0), groupKey{}, true)
	st.firstPos[slot] = packAggPos(7, 42)
	st.aggs[0].count[slot] = 12345
	st.aggs[1].count[slot] = 3
	leaves := []struct {
		seq int64
		sum float64
	}{{2, 0.1 + 0.2}, {9, math.Inf(-1)}, {11, math.NaN()}}
	for _, l := range leaves {
		st.aggs[1].leafSlot = append(st.aggs[1].leafSlot, slot)
		st.aggs[1].leafSeq = append(st.aggs[1].leafSeq, l.seq)
		st.aggs[1].leafSum = append(st.aggs[1].leafSum, l.sum)
	}
	st.aggs[2].set[slot] = true
	st.aggs[2].bestF[slot] = math.Copysign(0, -1)
	for _, v := range []float64{1.5, -2.25, math.NaN()} {
		st.aggs[3].addDistinctKey(slot, types.EncodeValueKey(nil, types.NewDouble(v)))
	}
	index := make([][]uint32, len(st.aggs))
	index[1] = st.aggs[1].groupLeaves(st.n)
	payload := st.appendState(nil, slot, index)

	got := newGroupStore(node, true)
	got.rebuild(nil, 4, 0)
	gs, _ := got.probe(mix64(0), groupKey{}, true)
	if err := got.foldState(gs, payload); err != nil {
		t.Fatal(err)
	}
	if got.firstPos[gs] != st.firstPos[slot] {
		t.Fatalf("firstPos = %d, want %d", got.firstPos[gs], st.firstPos[slot])
	}
	if got.aggs[0].count[gs] != 12345 || got.aggs[1].count[gs] != 3 {
		t.Fatalf("counts = %d, %d", got.aggs[0].count[gs], got.aggs[1].count[gs])
	}
	if len(got.aggs[1].leafSeq) != len(leaves) {
		t.Fatalf("leaves = %v", got.aggs[1].leafSeq)
	}
	for i, l := range leaves {
		if got.aggs[1].leafSlot[i] != gs || got.aggs[1].leafSeq[i] != l.seq ||
			math.Float64bits(got.aggs[1].leafSum[i]) != math.Float64bits(l.sum) {
			t.Fatalf("leaf %d = (%d, %v), want %+v", i, got.aggs[1].leafSeq[i], got.aggs[1].leafSum[i], l)
		}
	}
	if !got.aggs[2].set[gs] || math.Float64bits(got.aggs[2].bestF[gs]) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("best = %v (set %v)", got.aggs[2].bestF[gs], got.aggs[2].set[gs])
	}
	if len(got.aggs[3].distinct[gs]) != 3 || got.aggs[3].distBytes != st.aggs[3].distBytes {
		t.Fatalf("distinct = %v (%d bytes)", got.aggs[3].distinct[gs], got.aggs[3].distBytes)
	}
	// Truncated payloads must error, not panic.
	for cut := 0; cut < len(payload); cut += 3 {
		trunc := newGroupStore(node, true)
		trunc.rebuild(nil, 4, 0)
		sl, _ := trunc.probe(mix64(0), groupKey{}, true)
		if err := trunc.foldState(sl, payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

// decodeGroupKey decodes a full group key produced by encodeKeyRow back
// into boxed values: the reference decodeKeyRowInto, the emission path's
// typed decoder, is held to (here and in FuzzAggStateCodec).
func decodeGroupKey(key string, ts []types.Type) ([]types.Value, error) {
	vals := make([]types.Value, len(ts))
	pos := 0
	fail := func() ([]types.Value, error) {
		return nil, errCorruptGroupKey
	}
	for i, t := range ts {
		if pos >= len(key) {
			return fail()
		}
		if key[pos] == 0 {
			vals[i] = types.NewNull(t)
			pos++
			continue
		}
		pos++
		var width int
		switch t {
		case types.Boolean:
			width = 1
		case types.Integer:
			width = 4
		case types.Varchar:
			if pos+4 > len(key) {
				return fail()
			}
			width = 4 + int(binary.LittleEndian.Uint32([]byte(key[pos:pos+4])))
		default:
			width = 8
		}
		if pos+width > len(key) {
			return fail()
		}
		switch t {
		case types.Boolean:
			vals[i] = types.NewBool(key[pos] != 0)
		case types.Integer:
			vals[i] = types.NewInt(int32(binary.LittleEndian.Uint32([]byte(key[pos : pos+4]))))
		case types.BigInt:
			vals[i] = types.NewBigInt(int64(binary.LittleEndian.Uint64([]byte(key[pos : pos+8]))))
		case types.Timestamp:
			vals[i] = types.NewTimestamp(int64(binary.LittleEndian.Uint64([]byte(key[pos : pos+8]))))
		case types.Double:
			vals[i] = types.NewDouble(math.Float64frombits(binary.LittleEndian.Uint64([]byte(key[pos : pos+8]))))
		case types.Varchar:
			vals[i] = types.NewVarchar(key[pos+4 : pos+width])
		default:
			return fail()
		}
		pos += width
	}
	if pos != len(key) {
		return fail()
	}
	return vals, nil
}

// TestDecodeGroupKeyRoundtrip: decodeGroupKey and decodeKeyRowInto must
// invert encodeKeyRow for every group-key type, including NULLs, empty
// strings and NaN, and reject every truncation.
func TestDecodeGroupKeyRoundtrip(t *testing.T) {
	ts := []types.Type{types.Boolean, types.Integer, types.BigInt, types.Double, types.Varchar, types.Timestamp}
	rows := [][]types.Value{
		{types.NewBool(true), types.NewInt(-7), types.NewBigInt(1 << 40), types.NewDouble(math.NaN()), types.NewVarchar("héllo"), types.NewTimestamp(99)},
		{types.NewNull(types.Boolean), types.NewNull(types.Integer), types.NewNull(types.BigInt), types.NewDouble(-0.0), types.NewVarchar(""), types.NewNull(types.Timestamp)},
	}
	for _, row := range rows {
		vecs := make([]*vector.Vector, len(ts))
		for i, typ := range ts {
			vecs[i] = vector.New(typ, 1)
			vecs[i].SetLen(1)
			vecs[i].Set(0, row[i])
		}
		key := encodeKeyRow(nil, vecs, 0)
		vals, err := decodeGroupKey(string(key), ts)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(vals) != fmt.Sprint(row) {
			t.Fatalf("roundtrip: got %v, want %v", vals, row)
		}
		out := vector.NewChunk(ts)
		out.SetLen(1)
		if err := decodeKeyRowInto(key, out.Cols, 0); err != nil || fmt.Sprint(out.Row(0)) != fmt.Sprint(row) {
			t.Fatalf("typed roundtrip: got %v (%v), want %v", out.Row(0), err, row)
		}
		// Truncations must error, not panic.
		for cut := 0; cut < len(key); cut += 2 {
			if _, err := decodeGroupKey(string(key[:cut]), ts); err == nil {
				t.Fatalf("truncated key (%d bytes) decoded cleanly", cut)
			}
			if err := decodeKeyRowInto(key[:cut], out.Cols, 0); err == nil {
				t.Fatalf("truncated key (%d bytes) decoded cleanly into columns", cut)
			}
		}
	}
}

// TestAggSpillRunCorruptionPropagates: a corrupted state run must
// surface as a query error from the finish merge, and Close must still
// release every file and reservation afterwards.
func TestAggSpillRunCorruptionPropagates(t *testing.T) {
	mgr := txn.NewManager(nil)
	node := mkAggNode(t, 60_000, 8, mgr)
	pool := buffer.NewPool(1<<20, nil)
	ctx := &Context{Txn: mgr.Begin(), Threads: 1, Pool: pool, TmpDir: t.TempDir()}

	// Drive the table directly so corruption lands between spill and
	// merge: accumulate everything, corrupt one run, then finish.
	tbl := newAggTable(ctx, node, 1, new(OpProfile))
	scan, _, err := Build(node.Child)
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	seq := 0
	for {
		c, err := scan.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		if err := tbl.accumulate(ctx, seq, c); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	scan.Close(ctx)
	if tbl.spills == 0 || tbl.spillFile == nil {
		t.Fatal("no runs spilled")
	}
	// Corrupt the first run's first block-length header: an absurd size
	// the cursor must reject.
	spillF := tbl.spillFile.File()
	if _, err := spillF.WriteAt([]byte{0xff, 0xff, 0xff, 0x7f}, 0); err != nil {
		t.Fatal(err)
	}
	fin, err := finishAggTables(ctx, node, []*aggTable{tbl})
	if err == nil {
		for {
			c, nerr := fin.next()
			if nerr != nil {
				err = nerr
				break
			}
			if c == nil {
				break
			}
		}
		fin.close()
	}
	tbl.close()
	if err == nil {
		t.Fatal("corrupted state run did not error")
	}
	if used := pool.Used(); used != 0 {
		t.Fatalf("error path leaked %d reserved bytes", used)
	}
	if cerr := spillF.Close(); !errors.Is(cerr, os.ErrClosed) {
		t.Fatalf("spill file left open after error close (close returned %v)", cerr)
	}
}
