package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/expr"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// The tests here drive aggTable directly with hand-built chunks and
// compare it with the row-engine oracle's boxed aggregate — which shares
// no state layout, update or finish code with it — over the same rows.

// referenceAgg renders what the row engine computes for node over the
// chunks, one "v,v,...;" per group in first-seen order.
func referenceAgg(t testing.TB, node *plan.AggNode, chunks []*vector.Chunk) string {
	t.Helper()
	var rows [][]types.Value
	for _, c := range chunks {
		for r := 0; r < c.Len(); r++ {
			rows = append(rows, c.Row(r))
		}
	}
	groups, err := oracle.Aggregate(node, rows)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, row := range groups {
		sb.WriteString(fmt.Sprint(row, ";"))
	}
	return sb.String()
}

// tableAgg accumulates the chunks (chunk i is morsel i) round-robin into
// `tables` aggTables, finishes them and renders the emitted rows like
// referenceAgg. prep, when set, sees every table before it is fed.
func tableAgg(t testing.TB, ctx *Context, node *plan.AggNode, chunks []*vector.Chunk, tables int, prep func(*aggTable)) string {
	t.Helper()
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
			t.Fatal(err)
		}
	}
	fin, err := finishAggTables(ctx, node, tbls)
	if err != nil {
		t.Fatal(err)
	}
	defer fin.close()
	var sb strings.Builder
	for {
		c, err := fin.next()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			return sb.String()
		}
		for r := 0; r < c.Len(); r++ {
			sb.WriteString(fmt.Sprint(c.Row(r), ";"))
		}
	}
}

// specialValues are the argument values the kernel test draws from:
// extremes, ties under types.Compare (-0/+0, NaN payloads), and BIGINT
// values whose sum wraps.
func specialValues(typ types.Type) []types.Value {
	switch typ {
	case types.Boolean:
		return []types.Value{types.NewBool(true), types.NewBool(false)}
	case types.Integer:
		return []types.Value{types.NewInt(math.MaxInt32), types.NewInt(math.MinInt32), types.NewInt(0), types.NewInt(-7), types.NewInt(12)}
	case types.BigInt:
		return []types.Value{types.NewBigInt(math.MaxInt64), types.NewBigInt(math.MaxInt64 - 1), types.NewBigInt(math.MinInt64), types.NewBigInt(3), types.NewBigInt(-40)}
	case types.Timestamp:
		return []types.Value{types.NewTimestamp(0), types.NewTimestamp(1_600_000_000_000_000), types.NewTimestamp(-5), types.NewTimestamp(math.MaxInt64)}
	case types.Double:
		return []types.Value{types.NewDouble(0), types.NewDouble(math.Copysign(0, -1)), types.NewDouble(math.NaN()),
			types.NewDouble(math.Float64frombits(0x7ff8000000000dea)), types.NewDouble(math.Inf(1)), types.NewDouble(math.Inf(-1)),
			types.NewDouble(0.25), types.NewDouble(-1024.5), types.NewDouble(1 << 40)}
	default:
		return []types.Value{types.NewVarchar(""), types.NewVarchar("a"), types.NewVarchar("ab"), types.NewVarchar("a\x00"),
			types.NewVarchar("zebra"), types.NewVarchar(strings.Repeat("long", 9))}
	}
}

// kernelChunks builds three morsels of (BIGINT key with NULLs, arg): the
// argument column is all valid, one-in-three NULL, or all NULL. Only
// groups 4 and NULL draw NaN and the infinities, so the other groups'
// DOUBLE sums stay finite — and exact, whatever the reduction order.
func kernelChunks(rng *rand.Rand, typ types.Type, nulls string) []*vector.Chunk {
	vals := specialValues(typ)
	var finite []types.Value
	for _, v := range vals {
		if !math.IsNaN(v.F64) && !math.IsInf(v.F64, 0) {
			finite = append(finite, v)
		}
	}
	var chunks []*vector.Chunk
	for m := 0; m < 3; m++ {
		c := vector.NewChunk([]types.Type{types.BigInt, typ})
		for r := 0; r < 700; r++ {
			key := types.NewBigInt(int64(rng.Intn(5)))
			if rng.Intn(9) == 0 {
				key = types.NewNull(types.BigInt)
			}
			arg := vals[rng.Intn(len(vals))]
			if !key.Null && key.I64 < 4 {
				arg = finite[rng.Intn(len(finite))]
			}
			if nulls == "all" || (nulls == "some" && rng.Intn(3) == 0) {
				arg = types.NewNull(typ)
			}
			c.AppendRow(key, arg)
		}
		chunks = append(chunks, c)
	}
	return chunks
}

// TestAggKernelsMatchReference: every aggregate function over every
// argument type it accepts, with and without DISTINCT, over all-valid,
// partly NULL and all-NULL argument columns, must agree with the boxed
// types.Value reference — one table, and two tables merged.
func TestAggKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ctx := &Context{Threads: 1, TmpDir: t.TempDir()}
	for _, typ := range []types.Type{types.Boolean, types.Integer, types.BigInt, types.Timestamp, types.Double, types.Varchar} {
		for _, nulls := range []string{"none", "some", "all"} {
			chunks := kernelChunks(rng, typ, nulls)
			arg := &expr.ColRef{Idx: 1, Typ: typ}
			var aggs []plan.AggSpec
			for _, distinct := range []bool{false, true} {
				aggs = append(aggs,
					plan.AggSpec{Func: "count", Arg: arg, Distinct: distinct, Type: types.BigInt},
					plan.AggSpec{Func: "min", Arg: arg, Distinct: distinct, Type: typ},
					plan.AggSpec{Func: "max", Arg: arg, Distinct: distinct, Type: typ})
				if typ.IsNumeric() {
					sumType := types.BigInt
					if typ == types.Double {
						sumType = types.Double
					}
					aggs = append(aggs,
						plan.AggSpec{Func: "sum", Arg: arg, Distinct: distinct, Type: sumType},
						plan.AggSpec{Func: "avg", Arg: arg, Distinct: distinct, Type: types.Double})
				}
			}
			aggs = append(aggs, plan.AggSpec{Func: "count", Type: types.BigInt})
			for _, grouped := range []bool{true, false} {
				node := &plan.AggNode{Aggs: aggs}
				if grouped {
					node.GroupBy = []expr.Expr{&expr.ColRef{Idx: 0, Typ: types.BigInt}}
					node.Names = []string{"k"}
				}
				want := referenceAgg(t, node, chunks)
				for _, tables := range []int{1, 2} {
					if got := tableAgg(t, ctx, node, chunks, tables, nil); got != want {
						t.Fatalf("%v arg, nulls=%s, grouped=%v, tables=%d:\n got: %.400s\nwant: %.400s", typ, nulls, grouped, tables, got, want)
					}
				}
			}
		}
	}
}

// collisionChunks builds rows over (BIGINT, VARCHAR, BIGINT value) with
// NULLs in both key columns and ~keys distinct key pairs.
func collisionChunks(rng *rand.Rand, rows, keys int) []*vector.Chunk {
	var chunks []*vector.Chunk
	c := vector.NewChunk([]types.Type{types.BigInt, types.Varchar, types.BigInt})
	for i := 0; i < rows; i++ {
		k := rng.Intn(keys)
		a, b := types.NewBigInt(int64(k%97)), types.NewVarchar(fmt.Sprintf("k%d", k/97))
		if k%13 == 0 {
			a = types.NewNull(types.BigInt)
		}
		if k%17 == 0 {
			b = types.NewNull(types.Varchar)
		}
		c.AppendRow(a, b, types.NewBigInt(int64(i)))
		if c.Len() == vector.ChunkCapacity {
			chunks = append(chunks, c)
			c = vector.NewChunk(c.Types())
		}
	}
	if c.Len() > 0 {
		chunks = append(chunks, c)
	}
	return chunks
}

// TestAggTableCollisionsAndGrowth: with the hash forced to one value, or
// to four, every probe collides and walks the table; with thousands of
// groups the store grows through many doublings. Neither may change a
// result — for a two-column key with NULLs (arena keys) and for a
// single BIGINT key with NULLs (8-byte keys), one table and two merged.
func TestAggTableCollisionsAndGrowth(t *testing.T) {
	chunks := collisionChunks(rand.New(rand.NewSource(5)), 12_000, 3000)
	val := &expr.ColRef{Idx: 2, Typ: types.BigInt}
	aggs := []plan.AggSpec{
		{Func: "count", Type: types.BigInt},
		{Func: "sum", Arg: val, Type: types.BigInt},
		{Func: "max", Arg: val, Type: types.BigInt},
	}
	nodes := map[string]*plan.AggNode{
		"two-column key": {GroupBy: []expr.Expr{&expr.ColRef{Idx: 0, Typ: types.BigInt}, &expr.ColRef{Idx: 1, Typ: types.Varchar}},
			Names: []string{"a", "b"}, Aggs: aggs},
		"fixed key": {GroupBy: []expr.Expr{&expr.ColRef{Idx: 0, Typ: types.BigInt}}, Names: []string{"a"}, Aggs: aggs},
	}
	hooks := map[string]func(uint64) uint64{
		"constant hash": func(uint64) uint64 { return 0x5555_0000_aaaa_0001 },
		"4 hash values": func(h uint64) uint64 { return (h & 3) << 61 },
	}
	ctx := &Context{Threads: 1, TmpDir: t.TempDir()}
	for name, node := range nodes {
		want := referenceAgg(t, node, chunks)
		if got := tableAgg(t, ctx, node, chunks, 1, nil); got != want {
			t.Fatalf("%s, real hash: diverges from the reference", name)
		}
		for hook, f := range hooks {
			for _, tables := range []int{1, 2} {
				got := tableAgg(t, ctx, node, chunks, tables, func(tbl *aggTable) { tbl.store.hashFilter = f })
				if got != want {
					t.Fatalf("%s, %s, tables=%d: result differs from the uncollided run", name, hook, tables)
				}
			}
		}
	}
	// The growth the fixture is there for: a table starts at 16 slots.
	tbl := newAggTable(ctx, nodes["two-column key"], 1, new(OpProfile))
	defer tbl.close()
	for seq, c := range chunks {
		if err := tbl.accumulate(ctx, seq, c); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.store.cap < 16<<7 || tbl.store.n < 2500 {
		t.Fatalf("store holds %d groups at capacity %d; the fixture no longer crosses several doublings", tbl.store.n, tbl.store.cap)
	}
}

// accumulateShape is one of the benchmark's three aggregation shapes,
// as chunks of pre-evaluated columns (the group keys are plain column
// references, so nothing but the aggregation itself runs).
type accumulateShape struct {
	name   string
	node   *plan.AggNode
	chunks []*vector.Chunk
	rows   int
}

func accumulateShapes(rows int) []accumulateShape {
	regions := []string{"north", "south", "east", "west", "emea", "apac", "latam", "anz"}
	rng := rand.New(rand.NewSource(11))
	// id, id - id%4, region, qty, price
	colTypes := []types.Type{types.BigInt, types.BigInt, types.Varchar, types.BigInt, types.Double}
	var chunks []*vector.Chunk
	c := vector.NewChunk(colTypes)
	for i := 0; i < rows; i++ {
		c.AppendRow(types.NewBigInt(int64(i)), types.NewBigInt(int64(i-i%4)), types.NewVarchar(regions[rng.Intn(len(regions))]),
			types.NewBigInt(rng.Int63n(100)+1), types.NewDouble(rng.Float64()*1000))
		if c.Len() == vector.ChunkCapacity {
			chunks = append(chunks, c)
			c = vector.NewChunk(colTypes)
		}
	}
	if c.Len() > 0 {
		chunks = append(chunks, c)
	}
	col := func(i int) expr.Expr { return &expr.ColRef{Idx: i, Typ: colTypes[i]} }
	return []accumulateShape{
		{name: "varchar8x5", rows: rows, chunks: chunks, node: &plan.AggNode{
			GroupBy: []expr.Expr{col(2)}, Names: []string{"region"},
			Aggs: []plan.AggSpec{
				{Func: "count", Type: types.BigInt},
				{Func: "sum", Arg: col(3), Type: types.BigInt},
				{Func: "avg", Arg: col(4), Type: types.Double},
				{Func: "min", Arg: col(4), Type: types.Double},
				{Func: "max", Arg: col(4), Type: types.Double},
			}}},
		{name: "bigint25k", rows: rows, chunks: chunks, node: &plan.AggNode{
			GroupBy: []expr.Expr{col(1)}, Names: []string{"g"},
			Aggs: []plan.AggSpec{
				{Func: "count", Type: types.BigInt},
				{Func: "sum", Arg: col(3), Type: types.BigInt},
				{Func: "max", Arg: col(4), Type: types.Double},
			}}},
		{name: "twocol800", rows: rows, chunks: chunks, node: &plan.AggNode{
			GroupBy: []expr.Expr{col(2), col(3)}, Names: []string{"region", "qty"},
			Aggs: []plan.AggSpec{
				{Func: "avg", Arg: col(4), Type: types.Double},
				{Func: "count", Arg: col(0), Type: types.BigInt},
			}}},
	}
}

// TestAggAccumulateDoesNotAllocate: once a table holds the groups a
// chunk touches, accumulating the chunk allocates nothing — the scratch
// vectors are the table's, the keys of known groups are never encoded,
// and no aggregate state is a heap object.
func TestAggAccumulateDoesNotAllocate(t *testing.T) {
	ctx := &Context{Threads: 1}
	for _, shape := range accumulateShapes(20 * vector.ChunkCapacity) {
		tbl := newAggTable(ctx, shape.node, 1, new(OpProfile))
		for seq, c := range shape.chunks {
			if err := tbl.accumulate(ctx, seq, c); err != nil {
				t.Fatal(err)
			}
		}
		seq := len(shape.chunks)
		allocs := testing.AllocsPerRun(40, func() {
			// Every chunk again, as later morsels: all groups exist.
			c := shape.chunks[seq%len(shape.chunks)]
			if err := tbl.accumulate(ctx, seq, c); err != nil {
				t.Fatal(err)
			}
			seq++
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per chunk over existing groups, want 0", shape.name, allocs)
		}
		tbl.close()
	}
}

// storeFootprint adds up what the store's slices really hold, slice by
// slice, independently of groupStore.bytes.
func storeFootprint(s *groupStore) int64 {
	b := int64(cap(s.buckets)+cap(s.hashes)+cap(s.firstPos)+cap(s.touch)+cap(s.keyVal))*8 + int64(cap(s.keyOff))*4 + int64(cap(s.arena))
	for j := range s.aggs {
		c := &s.aggs[j]
		b += int64(cap(c.count)+cap(c.sumI)+cap(c.sumF)+cap(c.curF)+cap(c.bestI)+cap(c.bestF)+cap(c.leafSeq)+cap(c.leafSum)+cap(c.distinct)) * 8
		b += int64(cap(c.bestS))*16 + int64(cap(c.set)) + int64(cap(c.leafSlot))*4
		for _, set := range c.distinct {
			b += distinctSetBytes(set)
		}
	}
	return b
}

// TestAggReservationMatchesFootprint: what a table holds reserved in the
// pool is what its store occupies — after every chunk, while it grows
// and across the spills and compactions a budget forces.
func TestAggReservationMatchesFootprint(t *testing.T) {
	shape := accumulateShapes(60 * vector.ChunkCapacity)[1] // 15k BIGINT groups
	shape.node.Aggs = append(shape.node.Aggs,
		plan.AggSpec{Func: "sum", Arg: &expr.ColRef{Idx: 4, Typ: types.Double}, Type: types.Double},
		plan.AggSpec{Func: "count", Arg: &expr.ColRef{Idx: 3, Typ: types.BigInt}, Distinct: true, Type: types.BigInt})
	for _, limit := range []int64{0, 512 << 10} {
		pool := buffer.NewPool(limit, nil)
		ctx := &Context{Threads: 1, Pool: pool, TmpDir: t.TempDir()}
		tbl := newAggTable(ctx, shape.node, 1, new(OpProfile))
		for seq, c := range shape.chunks {
			if err := tbl.accumulate(ctx, seq, c); err != nil {
				t.Fatal(err)
			}
			got, want := tbl.reserved, storeFootprint(tbl.store)
			if diff := math.Abs(float64(got - want)); diff > 0.1*float64(want) {
				t.Fatalf("limit=%d morsel %d: %d bytes reserved, store occupies %d (%d groups)", limit, seq, got, want, tbl.store.n)
			}
			if used := pool.Used(); used != got {
				t.Fatalf("limit=%d morsel %d: pool holds %d bytes, table says %d", limit, seq, used, got)
			}
		}
		if spilled := tbl.spills > 0; spilled != (limit > 0) {
			t.Fatalf("limit=%d: spilled=%v; the fixture must spill exactly under the budget", limit, spilled)
		}
		tbl.close()
		if used := pool.Used(); used != 0 {
			t.Fatalf("limit=%d: %d bytes still reserved after close", limit, used)
		}
	}
}

// BenchmarkAggAccumulate measures the accumulation layer alone — a fresh
// table fed 100k rows of pre-evaluated columns — on the three shapes of
// benchmark/: the 8-group VARCHAR key with five aggregates (DOUBLE
// min/max among them), the 25k-group BIGINT key, and a two-column key.
func BenchmarkAggAccumulate(b *testing.B) {
	ctx := &Context{Threads: 1}
	slot := new(OpProfile) // the aggregate's, one per query
	for _, shape := range accumulateShapes(100_000) {
		b.Run(shape.name, func(b *testing.B) {
			benchPerRow(b, shape.rows, func() {
				tbl := newAggTable(ctx, shape.node, 1, slot)
				for seq, c := range shape.chunks {
					if err := tbl.accumulate(ctx, seq, c); err != nil {
						b.Fatal(err)
					}
				}
				tbl.close()
			})
		})
	}
}

// fuzzCodecShapes are the aggregations FuzzAggStateCodec decodes
// against: between them every key type and every state kind of the
// spilled-state codec.
func fuzzCodecShapes() []*plan.AggNode {
	col := func(i int, t types.Type) expr.Expr { return &expr.ColRef{Idx: i, Typ: t} }
	return []*plan.AggNode{
		{GroupBy: []expr.Expr{col(0, types.BigInt)}, Names: []string{"k"}, Aggs: []plan.AggSpec{
			{Func: "count", Type: types.BigInt},
			{Func: "sum", Arg: col(1, types.BigInt), Type: types.BigInt},
			{Func: "sum", Arg: col(2, types.Double), Type: types.Double},
			{Func: "min", Arg: col(2, types.Double), Type: types.Double}}},
		{GroupBy: []expr.Expr{col(0, types.Varchar), col(1, types.Integer)}, Names: []string{"s", "i"}, Aggs: []plan.AggSpec{
			{Func: "avg", Arg: col(2, types.Double), Type: types.Double},
			{Func: "max", Arg: col(0, types.Varchar), Type: types.Varchar},
			{Func: "count", Arg: col(2, types.Double), Distinct: true, Type: types.BigInt}}},
		{GroupBy: []expr.Expr{col(0, types.Double), col(1, types.Boolean)}, Names: []string{"d", "b"}, Aggs: []plan.AggSpec{
			{Func: "min", Arg: col(1, types.Boolean), Type: types.Boolean},
			{Func: "max", Arg: col(2, types.Timestamp), Type: types.Timestamp},
			{Func: "sum", Arg: col(3, types.BigInt), Distinct: true, Type: types.BigInt},
			{Func: "min", Arg: col(4, types.Integer), Type: types.Integer},
			{Func: "max", Arg: col(5, types.Varchar), Distinct: true, Type: types.Varchar}}},
	}
}

// encodeRecord serializes slot the way a spill writes it: its key, and
// its stored hash followed by its state.
func encodeRecord(st *groupStore, slot uint32) (key, payload []byte) {
	return st.appendKey(nil, slot), st.appendState(nil, slot, st.leafIndex())
}

// loadRecord reads one spilled record back the way a partition re-load
// does: the hash off the payload, the key into the store's form, a slot
// for it, the state folded in.
func loadRecord(node *plan.AggNode, key, payload []byte) (*groupStore, uint32, error) {
	st := newGroupStore(node, true)
	k, ok := st.parseKey(key)
	if !ok || len(payload) < 8 {
		return nil, 0, errCorruptGroupKey
	}
	st.rebuild(nil, 4, len(k.bytes))
	slot, _ := st.probe(binary.LittleEndian.Uint64(payload), k, true)
	return st, slot, st.foldState(slot, payload)
}

// FuzzAggStateCodec throws arbitrary key and payload bytes at the path
// a spilled state record is read back through (the hash, parseKey,
// foldState, then the fold and emission of what was decoded). The
// contract: an error, or a record that re-encodes to a fixed point and
// emits the key decodeGroupKey sees — never a panic, and nothing sized
// from a length the payload's own size does not bound.
func FuzzAggStateCodec(f *testing.F) {
	shapes := fuzzCodecShapes()
	// Seeds: a real record of every shape — accumulated through the
	// kernels, serialized like a spill — and a few broken ones.
	rng := rand.New(rand.NewSource(3))
	for si, node := range shapes {
		colTypes := []types.Type{node.GroupBy[0].Type(), types.BigInt, types.Double, types.BigInt, types.Integer, types.Varchar}
		switch si {
		case 1:
			colTypes[1] = types.Integer
		case 2:
			colTypes[1], colTypes[2] = types.Boolean, types.Timestamp
		}
		c := vector.NewChunk(colTypes)
		for r := 0; r < 40; r++ {
			row := make([]types.Value, len(colTypes))
			for i, typ := range colTypes {
				vals := specialValues(typ)
				row[i] = vals[rng.Intn(len(vals))]
			}
			row[0], row[1] = specialValues(colTypes[0])[0], specialValues(colTypes[1])[0] // one group
			c.AppendRow(row...)
		}
		tbl := newAggTable(&Context{Threads: 1}, node, 2, new(OpProfile))
		for seq := 0; seq < 3; seq++ {
			if err := tbl.accumulate(&Context{Threads: 1}, seq, c); err != nil {
				f.Fatal(err)
			}
		}
		tbl.store.flushPending()
		key, payload := encodeRecord(tbl.store, 0)
		f.Add(uint8(si), key, payload)
		f.Add(uint8(si), key[:len(key)/2], payload[:len(payload)/2])
		f.Add(uint8(si), append([]byte{}, key...), append(payload, 0))
		tbl.close()
	}
	noHash := make([]byte, 8)
	f.Add(uint8(0), []byte{0}, append(noHash, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)) // an absurd varint
	f.Add(uint8(1), []byte{1, 0xff, 0xff, 0xff, 0xff}, append(noHash, 0, 0, 0xff, 0xff, 0x03))          // a string length past the key; a leaf count past the payload
	f.Add(uint8(0), []byte{1, 1, 2, 3}, append(noHash, 0, 0, 0, 0, 0))                                  // a fixed-width key of the wrong width

	f.Fuzz(func(t *testing.T, shape uint8, key, payload []byte) {
		node := shapes[int(shape)%len(shapes)]
		boxed, keyErr := decodeGroupKey(string(key), groupTypes(node))
		st, slot, err := loadRecord(node, key, payload)
		if err != nil {
			return
		}
		for j := range st.aggs {
			c := &st.aggs[j]
			if len(c.leafSlot) > len(payload) {
				t.Fatalf("aggregate %d decoded %d leaves from %d payload bytes", j, len(c.leafSlot), len(payload))
			}
			if c.kind == aggDistinct && len(c.distinct[slot]) > len(payload) {
				t.Fatalf("aggregate %d decoded %d distinct values from %d payload bytes", j, len(c.distinct[slot]), len(payload))
			}
		}
		// Whatever decoded re-encodes to a fixed point.
		canonKey, canon := encodeRecord(st, slot)
		again, s2, err := loadRecord(node, canonKey, canon)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if k2, twice := encodeRecord(again, s2); string(k2) != string(canonKey) || string(twice) != string(canon) {
			t.Fatalf("record encoding is not a fixed point:\n once: %x %x\ntwice: %x %x", canonKey, canon, k2, twice)
		}
		// And it finishes: the key as decodeGroupKey sees it, or an error.
		again.foldLeaves()
		out := vector.NewChunk(schemaTypes(node.Schema()))
		out.SetLen(1)
		err = again.emit(out, 0, []uint32{s2})
		if (err == nil) != (keyErr == nil) {
			t.Fatalf("emit error %v, decodeGroupKey error %v", err, keyErr)
		}
		if err == nil {
			if got := fmt.Sprint(out.Row(0)[:len(boxed)]); got != fmt.Sprint(boxed) {
				t.Fatalf("emitted key %s, decodeGroupKey %v", got, boxed)
			}
		}
	})
}
