package extsort

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// encodeRows returns the encoded rows of c under l.
func encodeRows(l *keyLayout, c *vector.Chunk) []byte {
	rows := make([]byte, c.Len()*l.stride)
	l.encodeChunk(rows, c, 0)
	return rows
}

// checkOrderEquivalence holds the encoded order of every row pair of c,
// tie fallback included, to CompareRows on the full keys and on every
// key prefix (what PartitionMerge cuts on).
func checkOrderEquivalence(t testing.TB, c *vector.Chunk, keys []Key) {
	t.Helper()
	l := newKeyLayout(c.Types(), keys)
	rows := encodeRows(l, c)
	key := func(i int) []byte { return rows[i*l.stride : i*l.stride+l.width] }
	for nkeys := 1; nkeys <= len(keys); nkeys++ {
		for i := 0; i < c.Len(); i++ {
			for j := 0; j < c.Len(); j++ {
				got := sign(l.compare(key(i), c, i, key(j), c, j, nkeys))
				want := sign(CompareRows(c, i, c, j, keys[:nkeys]))
				if got != want {
					t.Fatalf("keys %+v: rows %v vs %v: encoded order %d, CompareRows %d (keys %x / %x)",
						keys[:nkeys], c.Row(i), c.Row(j), got, want, key(i), key(j))
				}
			}
		}
	}
}

// edgeValues are the values of one type the encoding has to get right.
func edgeValues(typ types.Type) []types.Value {
	long := strings.Repeat("p", varcharPrefix)
	switch typ {
	case types.Boolean:
		return []types.Value{types.NewBool(false), types.NewBool(true)}
	case types.Integer:
		var out []types.Value
		for _, v := range []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, 255, 256, math.MaxInt32} {
			out = append(out, types.NewInt(v))
		}
		return out
	case types.BigInt, types.Timestamp:
		var out []types.Value
		for _, v := range []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt32, -256, -1, 0, 1, 255, 256, 1 << 32, math.MaxInt64 - 1, math.MaxInt64} {
			if typ == types.Timestamp {
				out = append(out, types.NewTimestamp(v))
			} else {
				out = append(out, types.NewBigInt(v))
			}
		}
		return out
	case types.Double:
		var out []types.Value
		for _, v := range []float64{
			math.Inf(-1), -math.MaxFloat64, -1.5, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
			math.SmallestNonzeroFloat64, 1.5, math.MaxFloat64, math.Inf(1),
			math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
			math.Float64frombits(0xffffffffffffffff),
		} {
			out = append(out, types.NewDouble(v))
		}
		return out
	case types.Varchar:
		var out []types.Value
		for _, s := range []string{
			"", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "ab", "b", "\xff", "\xff\xff", "a\xff",
			long[:varcharPrefix-1], long, long + "\x00", long + "a", long + "b", long + "a\x00", long + "\xff",
			long[:varcharPrefix-1] + "\x00", long[:varcharPrefix-1] + "\x00z",
			strings.Repeat("\x00", varcharPrefix), strings.Repeat("\x00", varcharPrefix+1),
			strings.Repeat("\xff", varcharPrefix), strings.Repeat("\xff", varcharPrefix+2),
		} {
			out = append(out, types.NewVarchar(s))
		}
		return out
	}
	return nil
}

var keyTypes = []types.Type{types.Boolean, types.Integer, types.BigInt, types.Timestamp, types.Double, types.Varchar}

// TestNormalizedKeyOrderEquivalence: over every column type × Desc ×
// NullsFirst, with a second key behind the first so ties continue into
// it, bytes.Compare of the encoded keys (with the VARCHAR tie fallback)
// has the sign of CompareRows — the edge values of each type, NULL, and
// random values.
func TestNormalizedKeyOrderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, typ := range keyTypes {
		for _, second := range []types.Type{types.BigInt, types.Varchar} {
			for flags := 0; flags < 4; flags++ {
				desc, nullsFirst := flags&1 != 0, flags&2 != 0
				name := fmt.Sprintf("%v,%v/desc=%v/nullsFirst=%v", typ, second, desc, nullsFirst)
				t.Run(name, func(t *testing.T) {
					c := vector.NewChunk([]types.Type{typ, second})
					vals := append(edgeValues(typ), types.NewNull(typ))
					for i := 0; i < 12; i++ {
						vals = append(vals, randomValue(rng, typ))
					}
					seconds := append(edgeValues(second)[:3], types.NewNull(second))
					// Every value twice, with different second keys, so the
					// first key ties and the second decides.
					for i, v := range vals {
						c.AppendRow(v, seconds[i%len(seconds)])
						c.AppendRow(v, seconds[(i+1)%len(seconds)])
					}
					checkOrderEquivalence(t, c, []Key{
						{Col: 0, Desc: desc, NullsFirst: nullsFirst},
						{Col: 1, Desc: !desc, NullsFirst: !nullsFirst},
					})
				})
			}
		}
	}
}

func randomValue(rng *rand.Rand, typ types.Type) types.Value {
	switch typ {
	case types.Boolean:
		return types.NewBool(rng.Intn(2) == 0)
	case types.Integer:
		return types.NewInt(int32(rng.Uint32()))
	case types.BigInt:
		return types.NewBigInt(int64(rng.Uint64()))
	case types.Timestamp:
		return types.NewTimestamp(int64(rng.Uint64()))
	case types.Double:
		return types.NewDouble(math.Float64frombits(rng.Uint64()))
	default:
		b := make([]byte, rng.Intn(2*varcharPrefix+2))
		for i := range b {
			b[i] = "\x00ap\xff"[rng.Intn(4)]
		}
		return types.NewVarchar(string(b))
	}
}

// fuzzValue builds a value of the type from raw fuzz bytes; the bytes it
// did not use come back for the next key.
func fuzzValue(typ types.Type, raw []byte, null bool) (types.Value, []byte) {
	var word [8]byte
	n := copy(word[:], raw)
	bits := binary.LittleEndian.Uint64(word[:])
	if null {
		return types.NewNull(typ), raw[n:]
	}
	switch typ {
	case types.Boolean:
		return types.NewBool(bits&1 != 0), raw[n:]
	case types.Integer:
		return types.NewInt(int32(bits)), raw[n:]
	case types.BigInt:
		return types.NewBigInt(int64(bits)), raw[n:]
	case types.Timestamp:
		return types.NewTimestamp(int64(bits)), raw[n:]
	case types.Double:
		return types.NewDouble(math.Float64frombits(bits)), raw[n:]
	default:
		return types.NewVarchar(string(raw)), nil
	}
}

// FuzzNormalizedKey: for two fuzzed rows of (fuzzed type, BIGINT) under
// fuzzed Desc/NullsFirst/NULL flags, the encoded order equals
// CompareRows'. Doubles come from raw bits, so NaN payloads, ±0 and
// ±Inf are all reachable; strings are raw bytes of any length.
func FuzzNormalizedKey(f *testing.F) {
	long := strings.Repeat("p", varcharPrefix)
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	f.Add(uint8(2), uint8(0), word(1<<63), word(1<<63-1))                                         // MinInt64 vs MaxInt64
	f.Add(uint8(1), uint8(1), word(1<<31), word(0))                                               // MinInt32 DESC
	f.Add(uint8(4), uint8(0), word(0x7ff8000000000001), word(0xfff8000000000000))                 // two NaN payloads
	f.Add(uint8(4), uint8(3), word(1<<63), word(0))                                               // -0 vs +0
	f.Add(uint8(4), uint8(0), word(0x7ff0000000000000), word(0xfff0000000000000))                 // +Inf vs -Inf
	f.Add(uint8(5), uint8(4), []byte{}, []byte{})                                                 // NULL vs empty string
	f.Add(uint8(5), uint8(0), []byte("a\x00"), []byte("a"))                                       // embedded 0x00
	f.Add(uint8(5), uint8(1), []byte("a\xff"), []byte("a"))                                       // 0xFF under DESC
	f.Add(uint8(5), uint8(2), []byte(long+"x"), []byte(long+"y"))                                 // tie past the prefix
	f.Add(uint8(5), uint8(0), append([]byte(long), word(7)...), append([]byte(long), word(9)...)) // same
	f.Fuzz(func(t *testing.T, typSel, flags uint8, a, b []byte) {
		typ := keyTypes[int(typSel)%len(keyTypes)]
		c := vector.NewChunk([]types.Type{typ, types.BigInt})
		va, resta := fuzzValue(typ, a, flags&4 != 0)
		vb, restb := fuzzValue(typ, b, flags&8 != 0)
		sa, _ := fuzzValue(types.BigInt, resta, flags&16 != 0)
		sb, _ := fuzzValue(types.BigInt, restb, flags&32 != 0)
		c.AppendRow(va, sa)
		c.AppendRow(vb, sb)
		c.AppendRow(va, sb) // ties the first key with row 0
		checkOrderEquivalence(t, c, []Key{
			{Col: 0, Desc: flags&1 != 0, NullsFirst: flags&2 != 0},
			{Col: 1, Desc: flags&64 != 0, NullsFirst: flags&128 != 0},
		})
	})
}

// TestRunSortMatchesStableReference: the radix run sort (bucket passes,
// insertion sort, the comparison-sorted buckets of overflowing VARCHAR
// prefixes) and the merge of its spilled runs reproduce a stable sort
// under CompareRows — duplicate-heavy keys of every type, NULLs, NaN,
// long shared string prefixes — in memory and at two spill budgets.
func TestRunSortMatchesStableReference(t *testing.T) {
	typs := []types.Type{types.Varchar, types.BigInt, types.Double, types.Integer, types.Boolean, types.BigInt}
	long := strings.Repeat("q", varcharPrefix+3)
	strs := []string{"", "a", "b", "emea", long, long + "a", long + "b", long[:varcharPrefix], long[:varcharPrefix] + "\x00"}
	dbls := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1.5, -2.25, 1e300}
	const rows = 6000
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var chunks []*vector.Chunk
		c := vector.NewChunk(typs)
		for id := 0; id < rows; id++ {
			row := []types.Value{
				types.NewVarchar(strs[rng.Intn(len(strs))]),
				types.NewBigInt(int64(rng.Intn(5)) - 2),
				types.NewDouble(dbls[rng.Intn(len(dbls))]),
				types.NewInt(int32(rng.Intn(3)) * math.MaxInt32 / 2),
				types.NewBool(rng.Intn(2) == 0),
				types.NewBigInt(int64(id)),
			}
			for i := range row[:5] {
				if rng.Intn(9) == 0 {
					row[i] = types.NewNull(typs[i])
				}
			}
			c.AppendRow(row...)
			// Uneven chunk lengths: ordinals are (chunk, row), not a count.
			if c.Len() == vector.ChunkCapacity-int(seed)*100 {
				chunks = append(chunks, c)
				c = vector.NewChunk(typs)
			}
		}
		chunks = append(chunks, c)

		// Two to four keys over a random choice of the first five columns:
		// with few distinct values each, every key ties often.
		var keys []Key
		for _, col := range rng.Perm(5)[:2+rng.Intn(3)] {
			keys = append(keys, Key{Col: col, Desc: rng.Intn(2) == 0, NullsFirst: rng.Intn(2) == 0})
		}

		type ref struct{ chunk, row int }
		var want []ref
		for ci, c := range chunks {
			for r := 0; r < c.Len(); r++ {
				want = append(want, ref{ci, r})
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			return CompareRows(chunks[a.chunk], a.row, chunks[b.chunk], b.row, keys) < 0
		})

		for _, budget := range []int64{0, 96 << 10, 16 << 10} {
			s := NewSorter(typs, keys, budget, t.TempDir())
			for _, c := range chunks {
				if err := s.Add(c); err != nil {
					t.Fatal(err)
				}
			}
			it, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if (budget > 0) != (s.SpilledBytes() > 0) {
				t.Fatalf("seed %d budget %d: spilled %d bytes", seed, budget, s.SpilledBytes())
			}
			pos := 0
			for {
				out, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if out == nil {
					break
				}
				for r := 0; r < out.Len(); r++ {
					w := want[pos]
					if got, id := out.Cols[5].I64[r], chunks[w.chunk].Cols[5].I64[w.row]; got != id {
						t.Fatalf("seed %d keys %+v budget %d: row %d is id %d, stable reference has id %d",
							seed, keys, budget, pos, got, id)
					}
					if fmt.Sprint(out.Row(r)) != fmt.Sprint(chunks[w.chunk].Row(w.row)) {
						t.Fatalf("seed %d budget %d: row %d gathered as %v, source is %v",
							seed, budget, pos, out.Row(r), chunks[w.chunk].Row(w.row))
					}
					pos++
				}
			}
			if pos != rows {
				t.Fatalf("seed %d budget %d: %d rows, want %d", seed, budget, pos, rows)
			}
			if budget == 0 && it.TieFallbacks() == 0 && keys[0].Col == 0 {
				t.Fatalf("seed %d: long shared prefixes on the leading key took no tie fallback", seed)
			}
			it.Close()
		}
	}
}
