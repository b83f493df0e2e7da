package expr

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// factTypes is the benchmark table's schema: id, region, qty, price, d.
var factTypes = []types.Type{types.BigInt, types.Varchar, types.BigInt, types.Double, types.BigInt}

// factChunks builds n rows shaped like the benchmark's fact table: ids in
// order, eight regions, qty in 1..100, price in [0, 1000), d in
// 0..9999.
func factChunks(n int) []*vector.Chunk {
	rng := rand.New(rand.NewSource(1))
	regions := []string{"north", "south", "east", "west", "emea", "apac", "latam", "anz"}
	var out []*vector.Chunk
	for id := 0; id < n; {
		c := vector.NewChunk(factTypes)
		for r := 0; r < vector.ChunkCapacity && id < n; r, id = r+1, id+1 {
			c.AppendRow(types.NewBigInt(int64(id)), types.NewVarchar(regions[rng.Intn(8)]),
				types.NewBigInt(rng.Int63n(100)+1), types.NewDouble(rng.Float64()*1000),
				types.NewBigInt(rng.Int63n(10_000)))
		}
		out = append(out, c)
	}
	return out
}

// filterShapes are the scan class's three predicate shapes.
func filterShapes() []struct {
	name string
	pred Expr
} {
	col := func(i int) Expr { return &ColRef{Idx: i, Typ: factTypes[i]} }
	cmp := func(op CmpOp, l Expr, v types.Value) Expr { return &Compare{Op: op, L: l, R: &Const{Val: v}} }
	return []struct {
		name string
		pred Expr
	}{
		{"d_lt_100", cmp(CmpLt, col(4), types.NewBigInt(100))},
		{"region_eq_emea_and_qty_gt_50", &Logic{Op: OpAnd,
			L: cmp(CmpEq, col(1), types.NewVarchar("emea")), R: cmp(CmpGt, col(2), types.NewBigInt(50))}},
		{"qty_gt_98_and_price_lt_10", &Logic{Op: OpAnd,
			L: cmp(CmpGt, col(2), types.NewBigInt(98)), R: cmp(CmpLt, col(3), types.NewDouble(10))}},
	}
}

// BenchmarkFilter reports ns/row and allocs/chunk of the scan class's
// predicates on 100k fact rows: "select" is the filter stage's path
// (Select into a reused Scratch), "eval" the Boolean vector a projection
// would get (Eval, then SelectTrue).
func BenchmarkFilter(b *testing.B) {
	chunks := factChunks(100_000)
	for _, sh := range filterShapes() {
		b.Run(sh.name+"/select", func(b *testing.B) {
			var s Scratch
			benchChunks(b, chunks, func(c *vector.Chunk) error {
				s.Reset()
				_, err := Select(sh.pred, c, nil, &s)
				return err
			})
		})
		b.Run(sh.name+"/eval", func(b *testing.B) {
			var sel []int
			benchChunks(b, chunks, func(c *vector.Chunk) error {
				mask, err := sh.pred.Eval(c)
				if err == nil {
					sel = SelectTrue(mask, sel)
				}
				return err
			})
		})
	}
}

// benchChunks runs run over every chunk b.N times, after one warm-up
// pass that lets scratch buffers reach their size, and reports ns/row
// and allocs/chunk.
func benchChunks(b *testing.B, chunks []*vector.Chunk, run func(*vector.Chunk) error) {
	rows := 0
	for _, c := range chunks {
		rows += c.Len()
		if err := run(c); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chunks {
			if err := run(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*len(chunks)), "allocs/chunk")
}
