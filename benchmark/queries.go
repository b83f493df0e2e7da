package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/types"
	"repro/quack"
)

// query is one statement of a mix with the class whose sample it adds to.
type query struct {
	Class string
	SQL   string
}

// olapMix is the fixed, ordered content of one olap round: a scan block
// of four shapes twice over, then agg x4, join x2, agg_hc x2, sort and
// window once. Only the clustered range's position comes from the seed.
func olapMix(seed int64, rows int) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x01a9))
	span := max(rows/100, 1) // the clustered 1%
	var mix []query
	for _, v := range []struct {
		dBelow   int
		region   string
		qtyAbove int
		qtyTop   int
		priceLt  float64
	}{
		{100, "emea", 50, 98, 10.0},
		{150, "apac", 60, 97, 8.0},
	} {
		a := rng.Intn(rows - span + 1)
		mix = append(mix,
			query{"scan", fmt.Sprintf("SELECT count(*), sum(qty) FROM t WHERE id BETWEEN %d AND %d", a, a+span-1)},
			query{"scan", fmt.Sprintf("SELECT count(*), sum(qty) FROM t WHERE d < %d", v.dBelow)},
			query{"scan", fmt.Sprintf("SELECT count(*), sum(qty) FROM t WHERE region = '%s' AND qty > %d", v.region, v.qtyAbove)},
			query{"scan", fmt.Sprintf("SELECT id, qty, price FROM t WHERE qty > %d AND price < %.1f", v.qtyTop, v.priceLt)},
		)
	}
	const (
		agg    = "SELECT region, count(*), sum(qty), avg(price), min(price), max(price) FROM t GROUP BY region"
		join   = "SELECT u.v % 16, count(*), sum(t.qty) FROM t JOIN u ON t.d = u.k GROUP BY u.v % 16"
		aggHC  = "SELECT id - id % 4, count(*), sum(qty), max(price) FROM t GROUP BY id - id % 4"
		sort   = "SELECT id, qty, price FROM t ORDER BY qty DESC, price, id"
		window = "SELECT id, row_number() OVER (PARTITION BY region ORDER BY qty DESC, id), " +
			"sum(price) OVER (PARTITION BY region ORDER BY qty DESC, id) FROM t"
	)
	for i := 0; i < 4; i++ {
		mix = append(mix, query{"agg", agg})
	}
	mix = append(mix, query{"join", join}, query{"join", join},
		query{"agg_hc", aggHC}, query{"agg_hc", aggHC},
		query{"sort", sort}, query{"window", window})
	return mix
}

// serveMix is what each reader session loops over: the four dashboard
// queries of the serve sweep in internal/bench, and the sum the writer's
// net-zero transactions must never change.
var serveMix = []string{
	"SELECT count(*), sum(qty) FROM t WHERE qty > 98 AND price < 5.0",
	"SELECT region, count(*), sum(qty), avg(price), min(price) FROM t GROUP BY region",
	"SELECT min(price), max(price), sum(qty) FROM t WHERE region = 'emea' AND qty > 50",
	"SELECT count(*) FROM t WHERE price > 99.0",
	"SELECT sum(d) FROM t",
}

// The etl cycle's statements.
var (
	etlWrangle = []string{
		"UPDATE raw SET d = NULL WHERE d = -999",
		"UPDATE raw SET price = price * 1.1 WHERE qty > 50",
		"DELETE FROM raw WHERE id % 10 = 3",
		"CREATE TABLE clean AS SELECT region, qty, avg(price) AS avg_price, count(d) AS measured FROM raw GROUP BY region, qty",
	}
	// etlFirstQuery touches every column of raw after the reopen. It has
	// no sum or avg over a DOUBLE: the checkpoint compacts deleted rows
	// away, morsel boundaries move, and the engine's morsel-wise double
	// sums are only promised to be identical for one physical layout.
	etlFirstQuery = "SELECT region, count(*), sum(qty), min(price), max(price), count(d), max(id) FROM raw GROUP BY region"
	etlCleanQuery = "SELECT count(*), sum(measured) FROM clean"
)

// answer is what the reference pass records for one query.
type answer struct {
	Rows        int64  `json:"rows"`
	Fingerprint uint64 `json:"fingerprint"`
}

// drain consumes a result chunk by chunk and counts its rows.
func drain(rows *quack.Rows) int64 {
	var n int64
	for c := rows.NextChunk(); c != nil; c = rows.NextChunk() {
		n += int64(c.Len())
	}
	return n
}

// fingerprint consumes a result chunk by chunk into an order-sensitive
// hash of every value: the engine promises byte-identical results at
// every thread count and budget, so doubles hash by their bits.
func fingerprint(rows *quack.Rows) answer {
	h := fnv.New64a()
	var a answer
	var b [9]byte
	for c := rows.NextChunk(); c != nil; c = rows.NextChunk() {
		a.Rows += int64(c.Len())
		for r := 0; r < c.Len(); r++ {
			for _, col := range c.Cols {
				if col.IsNull(r) {
					h.Write([]byte{0})
					continue
				}
				b[0] = 1
				switch col.Type {
				case types.BigInt, types.Timestamp:
					binary.LittleEndian.PutUint64(b[1:], uint64(col.I64[r]))
				case types.Integer:
					binary.LittleEndian.PutUint64(b[1:], uint64(col.I32[r]))
				case types.Double:
					binary.LittleEndian.PutUint64(b[1:], math.Float64bits(col.F64[r]))
				case types.Boolean:
					var v uint64
					if col.Bools[r] {
						v = 1
					}
					binary.LittleEndian.PutUint64(b[1:], v)
				case types.Varchar:
					h.Write([]byte{2})
					h.Write([]byte(col.Str[r]))
					continue
				}
				h.Write(b[:])
			}
			h.Write([]byte{0xff})
		}
	}
	a.Fingerprint = h.Sum64()
	return a
}

// checkAggAgainstTotals compares the GROUP BY region answer with what the
// generator counted while it produced the rows.
func checkAggAgainstTotals(rows *quack.Rows, tot totals) error {
	seen := 0
	for c := rows.NextChunk(); c != nil; c = rows.NextChunk() {
		for r := 0; r < c.Len(); r++ {
			name := c.Cols[0].Str[r]
			reg := -1
			for i, s := range regions {
				if s == name {
					reg = i
				}
			}
			if reg < 0 {
				return fmt.Errorf("agg: unknown region %q", name)
			}
			if got, want := c.Cols[1].I64[r], tot.RegionCount[reg]; got != want {
				return fmt.Errorf("agg: count(%s) = %d, generator counted %d", name, got, want)
			}
			if got, want := c.Cols[2].I64[r], tot.RegionQty[reg]; got != want {
				return fmt.Errorf("agg: sum(qty) of %s = %d, generator summed %d", name, got, want)
			}
			seen++
		}
	}
	if seen != len(regions) {
		return fmt.Errorf("agg: %d regions, want %d", seen, len(regions))
	}
	return nil
}
