package extsort

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// benchRows is the benchmark module's fact-table size, so ns/row here
// reads against its extsort.* probes.
const benchRows = 100_000

// benchShape is one sorter input the layer benchmarks run on.
type benchShape struct {
	name  string
	types []types.Type
	keys  []Key
	fill  func(rng *rand.Rand, id int64, c *vector.Chunk, r int)
}

var benchRegions = []string{"amer", "apac", "emea", "latam", "mena", "nordics", "oceania", "ssa"}

// benchShapes are the benchmark's sort class (id, qty, price ORDER BY
// qty DESC, price, id) and its window class led by the low-cardinality
// VARCHAR partition key (PARTITION BY region ORDER BY qty DESC, id).
// The engine keys both on the payload columns themselves, as here, and
// adds only its hidden position column: ORDER BY gathers 4 columns per
// merged row and the window 5 (exec's BenchmarkWindow measures the
// whole window operator).
var benchShapes = []benchShape{
	{
		name:  "sort",
		types: []types.Type{types.BigInt, types.BigInt, types.Double},
		keys:  []Key{{Col: 1, Desc: true}, {Col: 2}, {Col: 0}},
		fill: func(rng *rand.Rand, id int64, c *vector.Chunk, r int) {
			c.Cols[0].I64[r] = id
			c.Cols[1].I64[r] = rng.Int63n(100) + 1
			c.Cols[2].F64[r] = rng.Float64() * 1000
		},
	},
	{
		name:  "window",
		types: []types.Type{types.BigInt, types.Double, types.Varchar, types.BigInt},
		keys:  []Key{{Col: 2, NullsFirst: true}, {Col: 3, Desc: true}, {Col: 0}},
		fill: func(rng *rand.Rand, id int64, c *vector.Chunk, r int) {
			c.Cols[0].I64[r] = id
			c.Cols[1].F64[r] = rng.Float64() * 1000
			c.Cols[2].Str[r] = benchRegions[rng.Intn(len(benchRegions))]
			c.Cols[3].I64[r] = rng.Int63n(100) + 1
		},
	},
}

func (sh benchShape) chunks() []*vector.Chunk {
	rng := rand.New(rand.NewSource(1))
	var out []*vector.Chunk
	for id := 0; id < benchRows; {
		c := vector.NewChunk(sh.types)
		n := min(benchRows-id, vector.ChunkCapacity)
		c.SetLen(n)
		for r := 0; r < n; r++ {
			sh.fill(rng, int64(id+r), c, r)
		}
		out = append(out, c)
		id += n
	}
	return out
}

// reportPerRow turns the loop's totals into the ns/row and allocs/row
// the layer metrics are quoted in.
func reportPerRow(b *testing.B, rows int, mallocs uint64) {
	total := float64(rows) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
	b.ReportMetric(float64(mallocs)/total, "allocs/row")
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sortAndDrain feeds the chunks to a sorter and reads the sorted stream
// back, returning the mallocs of the timed part: the whole of it, or
// with timeDrain only the drain (the merge, when the budget spills).
func sortAndDrain(b *testing.B, sh benchShape, input []*vector.Chunk, budget int64, timeDrain bool) uint64 {
	b.Helper()
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if timeDrain {
			b.StopTimer()
		}
		before := mallocCount()
		s := NewSorter(sh.types, sh.keys, budget, b.TempDir())
		for _, c := range input {
			if err := s.Add(c); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Finish()
		if err != nil {
			b.Fatal(err)
		}
		if timeDrain {
			before = mallocCount()
			b.StartTimer()
		}
		rows := 0
		for {
			c, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if c == nil {
				break
			}
			rows += c.Len()
		}
		it.Close()
		mallocs += mallocCount() - before
		if rows != benchRows {
			b.Fatalf("sorter returned %d of %d rows", rows, benchRows)
		}
	}
	return mallocs
}

// BenchmarkKeyEncode: the column-at-a-time encode of every row's keys
// into the run's key buffer, nothing else.
func BenchmarkKeyEncode(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			input := sh.chunks()
			l := newKeyLayout(sh.types, sh.keys)
			rows := make([]byte, benchRows*l.stride)
			before := mallocCount()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := 0
				for ci, c := range input {
					l.encodeChunk(rows[off:], c, ci)
					off += c.Len() * l.stride
				}
			}
			reportPerRow(b, benchRows, mallocCount()-before)
		})
	}
}

// BenchmarkRunSort: one in-memory run — key encode, run sort and the
// column-wise read-back (the benchmark's extsort.run_sort_ns_per_row).
func BenchmarkRunSort(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			input := sh.chunks()
			reportPerRow(b, benchRows, sortAndDrain(b, sh, input, 0, false))
		})
	}
}

// BenchmarkMerge: the loser-tree merge of the runs a 128 KB budget
// spills (the benchmark's extsort.merge_ns_per_row); run generation is
// outside the timer.
func BenchmarkMerge(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			input := sh.chunks()
			reportPerRow(b, benchRows, sortAndDrain(b, sh, input, 128<<10, true))
		})
	}
}
