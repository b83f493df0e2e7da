package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// The tests here pin the join's table — the aggregation's groupStore
// indexing the build — against a nested loop that shares no hashing and
// no key encoding with it. Rows are (id BIGINT, key columns...).

// keysEqual is the nested loop's match: every key column non-NULL on
// both sides and equal under types.Compare.
func keysEqual(p, b []types.Value) bool {
	for c := 1; c < len(p); c++ {
		if p[c].Null || b[c].Null || types.Compare(p[c], b[c]) != 0 {
			return false
		}
	}
	return true
}

// nestedLoopPairs is the inner join of probe and build as (probe id,
// build id) pairs, in probe order, then build order.
func nestedLoopPairs(probe, build [][]types.Value) [][2]int64 {
	var out [][2]int64
	for _, p := range probe {
		for _, b := range build {
			if keysEqual(p, b) {
				out = append(out, [2]int64{p[0].I64, b[0].I64})
			}
		}
	}
	return out
}

// joinPairs reads the (probe id, build id) pairs out of a join's output;
// the build side's columns start at nl.
func joinPairs(chunks []*vector.Chunk, nl int) [][2]int64 {
	var out [][2]int64
	for _, c := range chunks {
		for r := 0; r < c.Len(); r++ {
			out = append(out, [2]int64{c.Cols[0].I64[r], c.Cols[nl].I64[r]})
		}
	}
	return out
}

// keyedJoin joins probe and build, both (id, keys...), on every key
// column.
func keyedJoin(typ plan.JoinKind, probe, build plan.Node, keyTypes []types.Type) *plan.JoinNode {
	join := &plan.JoinNode{Left: probe, Right: build, Type: typ}
	for i, kt := range keyTypes {
		join.LeftKeys = append(join.LeftKeys, &expr.ColRef{Idx: i + 1, Typ: kt})
		join.RightKeys = append(join.RightKeys, &expr.ColRef{Idx: i + 1, Typ: kt})
	}
	return join
}

// renderChunks prints chunks with their boundaries, DOUBLEs as bits.
func renderChunks(chunks []*vector.Chunk) string {
	var sb strings.Builder
	for _, c := range chunks {
		fmt.Fprint(&sb, c.Len(), ":")
		for r := 0; r < c.Len(); r++ {
			for _, v := range c.Cols {
				if v.Type == types.Double && v.Valid.IsValid(r) {
					fmt.Fprintf(&sb, "%x,", math.Float64bits(v.F64[r]))
				} else {
					fmt.Fprint(&sb, v.Get(r).String(), ",")
				}
			}
		}
		sb.WriteString("|")
	}
	return sb.String()
}

// hashJoinRun runs join on the hash path with its store's hashes passed
// through filter (nil: the real hash) and returns the output and the
// capacity the store grew to. On the way it checks that the table size
// the JOIN line reports is what the table's slices hold.
func hashJoinRun(t *testing.T, join *plan.JoinNode, mgr *txn.Manager, threads int, filter func(uint64) uint64) ([]*vector.Chunk, int) {
	t.Helper()
	src, err := buildSource(join, mirror(join))
	if err != nil {
		t.Fatal(err)
	}
	hj := src.(*hashJoinOp)
	hj.hashFilter = filter
	ctx := &Context{Txn: mgr.Begin(), Threads: threads, JoinStrategy: JoinForceHash}
	if err := src.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer src.Close(ctx)
	footprint := storeFootprint(hj.store) + int64(cap(hj.refs))*8 + int64(cap(hj.start))*4
	if got := hj.tableBytes(); got != footprint {
		t.Fatalf("table_bytes %d, the table's slices hold %d", got, footprint)
	}
	var out []*vector.Chunk
	for {
		c, err := src.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			return out, hj.store.cap
		}
		out = append(out, c)
	}
}

// TestJoinTableCollisionsAndGrowth: with the join store's hash forced to
// one value, or to four, every build insert and every probe walks the
// table; with over a thousand distinct build keys the store grows from
// 16 slots through at least seven doublings. Neither may change the
// join's values, order or chunk boundaries — at one worker and four, for
// fixed-width keys with NULLs, VARCHAR keys, two-column arena keys with
// NULLs, and DOUBLE keys where -0.0 meets +0.0 and two NaN payloads meet
// — and the uncollided inner join is the nested loop's. An empty keyed
// build matches nothing: lookup on a store that never grew.
func TestJoinTableCollisionsAndGrowth(t *testing.T) {
	const buildN, probeN = 1500, 1500
	nanA, nanB := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000dea)
	shapes := []struct {
		name     string
		keyTypes []types.Type
		// key is key number k's values; null marks a row that should
		// carry a NULL, probe the probe side.
		key func(k int, null, probe bool) []types.Value
	}{
		{"bigint with NULLs", []types.Type{types.BigInt}, func(k int, null, _ bool) []types.Value {
			if null {
				return []types.Value{types.NewNull(types.BigInt)}
			}
			return []types.Value{types.NewBigInt(int64(k) * 1_000_003)}
		}},
		{"varchar", []types.Type{types.Varchar}, func(k int, _, _ bool) []types.Value {
			return []types.Value{types.NewVarchar(fmt.Sprintf("key-%d", k))}
		}},
		{"two columns with NULLs", []types.Type{types.BigInt, types.Varchar}, func(k int, null, _ bool) []types.Value {
			a, b := types.NewBigInt(int64(k%97)), types.NewVarchar(fmt.Sprint("s", k/97))
			if null && k%2 == 0 {
				a = types.NewNull(types.BigInt)
			} else if null {
				b = types.NewNull(types.Varchar)
			}
			return []types.Value{a, b}
		}},
		{"double with -0 and NaN payloads", []types.Type{types.Double}, func(k int, null, probe bool) []types.Value {
			v := float64(k) + 0.5
			switch {
			case null:
				return []types.Value{types.NewNull(types.Double)}
			case k%100 == 0 && probe:
				v = 0
			case k%100 == 0:
				v = math.Copysign(0, -1)
			case k%100 == 1 && probe:
				v = nanB
			case k%100 == 1:
				v = nanA
			}
			return []types.Value{types.NewDouble(v)}
		}},
	}
	hooks := map[string]func(uint64) uint64{
		"constant hash": func(uint64) uint64 { return 0x5555_0000_aaaa_0001 },
		"4 hash values": func(h uint64) uint64 { return (h & 3) << 61 },
	}
	for _, s := range shapes {
		mgr := txn.NewManager(nil)
		cols := []catalog.Column{{Name: "id", Type: types.BigInt}}
		for i, kt := range s.keyTypes {
			cols = append(cols, catalog.Column{Name: fmt.Sprint("k", i), Type: kt})
		}
		rows := func(n int, probe bool) [][]types.Value {
			out := make([][]types.Value, n)
			for i := range out {
				k, null := i%1200, i%11 == 0
				if probe {
					k, null = i*7%1400, i%13 == 0
				}
				out[i] = append([]types.Value{types.NewBigInt(int64(i))}, s.key(k, null, probe)...)
			}
			return out
		}
		probeRows, buildRows := rows(probeN, true), rows(buildN, false)
		table := func(name string, rows [][]types.Value) plan.Node {
			return scanAll(newTestTable(t, mgr, name, cols, len(rows), func(i int) []types.Value { return rows[i] }))
		}
		probe, build, empty := table("p", probeRows), table("b", buildRows), table("e", nil)
		for _, typ := range []plan.JoinKind{plan.JoinInner, plan.JoinLeft} {
			join := keyedJoin(typ, probe, build, s.keyTypes)
			chunks, storeCap := hashJoinRun(t, join, mgr, 1, nil)
			if storeCap < 16<<7 {
				t.Fatalf("%s: the store grew to %d slots; the fixture no longer crosses seven doublings", s.name, storeCap)
			}
			if typ == plan.JoinInner {
				got, want := joinPairs(chunks, len(cols)), nestedLoopPairs(probeRows, buildRows)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: %d pairs, the nested loop %d:\n got %.300v\nwant %.300v", s.name, len(got), len(want), got, want)
				}
			}
			want := renderChunks(chunks)
			for hook, f := range hooks {
				for _, threads := range []int{1, 4} {
					if got, _ := hashJoinRun(t, join, mgr, threads, f); renderChunks(got) != want {
						t.Fatalf("%s, %v join, %s, threads=%d: output differs from the uncollided run", s.name, typ, hook, threads)
					}
				}
			}
			for _, f := range []func(uint64) uint64{nil, hooks["constant hash"]} {
				for _, threads := range []int{1, 4} {
					got, _ := hashJoinRun(t, keyedJoin(typ, probe, empty, s.keyTypes), mgr, threads, f)
					if rows, want := countRows(got), map[plan.JoinKind]int{plan.JoinInner: 0, plan.JoinLeft: probeN}[typ]; rows != want {
						t.Fatalf("%s, %v join against an empty build, threads=%d: %d rows, want %d", s.name, typ, threads, rows, want)
					}
				}
			}
		}
	}
}

// fuzzKeyTypes are the key column types FuzzJoinKeys draws from.
var fuzzKeyTypes = []types.Type{types.Boolean, types.Integer, types.BigInt, types.Double, types.Varchar}

// fuzzBytes hands out the fuzz input a byte at a time; past its end
// every byte reads as zero.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) bits(n int) uint64 {
	var x uint64
	for i := 0; i < n; i++ {
		x |= uint64(b.next()) << (8 * i)
	}
	return x
}

// fuzzKeyValue reads one key value. Its tag byte picks NULL, raw bits
// (any DOUBLE payload, any string of bytes), or one of a few small
// values — ±0, NaN payloads and the infinities among the DOUBLEs, 0x00
// and 0xFF among the strings — so keys repeat and match.
func fuzzKeyValue(b *fuzzBytes, typ types.Type) types.Value {
	tag := b.next()
	if tag%8 == 0 {
		return types.NewNull(typ)
	}
	raw, pick := tag%8 == 1, int(tag>>4)
	switch typ {
	case types.Boolean:
		return types.NewBool(pick%2 == 1)
	case types.Integer:
		if raw {
			return types.NewInt(int32(b.bits(4)))
		}
		return types.NewInt(int32(pick) - 8)
	case types.BigInt:
		if raw {
			return types.NewBigInt(int64(b.bits(8)))
		}
		return types.NewBigInt(int64(pick) - 8)
	case types.Double:
		if raw {
			return types.NewDouble(math.Float64frombits(b.bits(8)))
		}
		small := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000dea),
			math.Float64frombits(0xfff0000000000001), math.Inf(1), math.Inf(-1), 1.5, -1.5, 1}
		return types.NewDouble(small[pick%len(small)])
	}
	if raw {
		s := make([]byte, b.next()%12)
		for i := range s {
			s[i] = b.next()
		}
		return types.NewVarchar(string(s))
	}
	small := []string{"", "\x00", "\xff", "a", "a\x00", "a\xff", "\x00\x00", "ab"}
	return types.NewVarchar(small[pick%len(small)])
}

// decodeJoinKeys turns fuzz bytes into one or two key column types and
// a build and a probe side of (id, keys...) rows.
func decodeJoinKeys(data []byte) (keyTypes []types.Type, probe, build [][]types.Value) {
	b := fuzzBytes(data)
	h := b.next()
	keyTypes = []types.Type{fuzzKeyTypes[int(h&7)%len(fuzzKeyTypes)]}
	if h&0x80 != 0 {
		keyTypes = append(keyTypes, fuzzKeyTypes[int(h>>3&7)%len(fuzzKeyTypes)])
	}
	side := func(n int) [][]types.Value {
		rows := make([][]types.Value, n)
		for i := range rows {
			rows[i] = []types.Value{types.NewBigInt(int64(i))}
			for _, kt := range keyTypes {
				rows[i] = append(rows[i], fuzzKeyValue(&b, kt))
			}
		}
		return rows
	}
	nb, np := int(b.next()%48), int(b.next()%48)
	build = side(nb)
	probe = side(np)
	return keyTypes, probe, build
}

// FuzzJoinKeys: the key equality the join and the aggregation share —
// column-at-a-time hashing, the stored hash, 8-byte fixed keys and
// arena keys compared in place — must pair exactly the rows a nested
// loop over types.Compare pairs, in the same order, for one or two key
// columns of every key type with NULLs, raw DOUBLE bits (NaN payloads,
// ±0) and strings holding 0x00 and 0xFF.
func FuzzJoinKeys(f *testing.F) {
	rng := rand.New(rand.NewSource(25))
	for _, h := range []byte{0, 1, 2, 3, 4, 0x80 | 3 | 4<<3, 0x80 | 2 | 0<<3, 0x80 | 4 | 1<<3} {
		seed := make([]byte, 600)
		rng.Read(seed)
		seed[0], seed[1], seed[2] = h, 40, 40
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keyTypes, probeRows, buildRows := decodeJoinKeys(data)
		cols := []plan.ColInfo{{Name: "id", Type: types.BigInt}}
		for i, kt := range keyTypes {
			cols = append(cols, plan.ColInfo{Name: fmt.Sprint("k", i), Type: kt})
		}
		join := keyedJoin(plan.JoinInner, &plan.ValuesNode{Cols: cols, Rows: probeRows}, &plan.ValuesNode{Cols: cols, Rows: buildRows}, keyTypes)
		op, _, err := Build(join)
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := Collect(&Context{Threads: 1, JoinStrategy: JoinForceHash}, op)
		if err != nil {
			t.Fatal(err)
		}
		got, want := joinPairs(chunks, len(cols)), nestedLoopPairs(probeRows, buildRows)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v keys: the join pairs %v, the nested loop %v", keyTypes, got, want)
		}
	})
}
