package quack_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/quack"
)

// joinDB builds the join fixture. p (probe, 4000 rows) and b (build,
// 2500 rows) share a duplicate-heavy nullable BIGINT key k — the value 7
// sits in 1500 build rows, more than ChunkCapacity matches for each of
// its few probe rows — a nullable INTEGER k2, a nullable VARCHAR s and a
// DOUBLE d carrying -0.0, two NaN payloads and NULLs. ps × bs are the
// keyless shapes: three probe morsels against a build side of more than
// one chunk. c is the third table of the join-over-join, e is empty and
// w (30000 rows) is a build side that does not fit a 1MB budget, so the
// budgeted legs take the merge-join fallback.
func joinDB(t *testing.T, threads int, budget string) *quack.DB {
	t.Helper()
	// Unlimited unless budget says otherwise, whatever QUACK_MEMORY_LIMIT
	// a CI leg exports: the golden below is the hash join's order.
	db, err := quack.Open(":memory:", quack.WithThreads(threads), quack.WithMemoryLimit(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(18))
	fill := func(name string, n, hot int) {
		mustExec(t, db, "CREATE TABLE "+name+" (id BIGINT, k BIGINT, k2 INTEGER, s VARCHAR, d DOUBLE, x BIGINT)")
		app, err := db.Appender(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			var k, k2, s, d any
			switch {
			case i < hot:
				k = int64(7)
			case rng.Intn(9) != 0:
				k = int64(8 + rng.Intn(500))
			}
			if rng.Intn(13) != 0 {
				k2 = int32(rng.Intn(4))
			}
			if rng.Intn(11) != 0 {
				s = fmt.Sprintf("s%03d", rng.Intn(300))
			}
			switch v := rng.Intn(40); v {
			case 0:
			case 1:
				d = math.Copysign(0, -1)
			case 2:
				d = math.NaN()
			case 3:
				d = math.Float64frombits(0x7ff8000000000dea)
			default:
				d = float64(rng.Intn(81)-40) * 0.5
			}
			if err := app.AppendRow(int64(i), k, k2, s, d, int64(rng.Intn(1000))); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fill("p", 4000, 3)
	fill("b", 2500, 1500)
	fill("ps", 2500, 0)
	fill("bs", 1100, 0)
	fill("c", 40, 0)
	fill("e", 0, 0)
	fill("w", 30_000, 0)
	if budget != "" {
		mustExec(t, db, "PRAGMA memory_limit='"+budget+"'")
	}
	return db
}

// joinPalette is every shape the one join operator serves. An overBudget
// shape needs more than a 1MB memory_limit gives it and has no
// out-of-core fallback (a LEFT join's build): the budgeted legs expect
// the out-of-memory error, and nothing left reserved after it.
var joinPalette = []struct {
	name, sql  string
	overBudget bool
}{
	{name: "inner", sql: "SELECT p.id, b.id, p.k FROM p JOIN b ON p.k = b.k"},
	{name: "left", sql: "SELECT p.id, b.id, b.s FROM p LEFT JOIN b ON p.k = b.k"},
	{name: "cross", sql: "SELECT ps.id, c.id, c.s FROM ps CROSS JOIN c"},
	{name: "nonequi", sql: "SELECT ps.id, bs.id FROM ps JOIN bs ON ps.x + 900 < bs.x"},
	{name: "left_nonequi", sql: "SELECT ps.id, bs.id FROM ps LEFT JOIN bs ON ps.x + 900 < bs.x"},
	{name: "equi_extra", sql: "SELECT p.id, b.id FROM p JOIN b ON p.k = b.k AND p.x < b.x"},
	{name: "left_extra_rejects_all", sql: "SELECT p.id, p.s, b.id FROM p LEFT JOIN b ON p.k = b.k AND p.x > b.x + 5000"},
	{name: "multi_key", sql: "SELECT p.id, b.id FROM p JOIN b ON p.k = b.k AND p.k2 = b.k2"},
	{name: "varchar_key", sql: "SELECT p.id, b.id, b.s FROM p JOIN b ON p.s = b.s WHERE p.id < 900"},
	{name: "double_key", sql: "SELECT p.id, b.id, p.d, b.d FROM p JOIN b ON p.d = b.d WHERE p.id < 200 AND b.id >= 1500"},
	{name: "varchar_double_key", sql: "SELECT p.id, b.id FROM p LEFT JOIN b ON p.s = b.s AND p.d = b.d"},
	{name: "computed_key", sql: "SELECT p.id, b.id FROM p JOIN b ON p.k + 1 = b.k + 1"},
	{name: "empty_build", sql: "SELECT p.id, e.id FROM p LEFT JOIN e ON p.k = e.k"},
	{name: "empty_probe", sql: "SELECT e.id, b.id FROM e JOIN b ON e.k = b.k"},
	{name: "empty_cross", sql: "SELECT ps.id, e.id FROM ps CROSS JOIN e"},
	{name: "big_build", sql: "SELECT c.id, w.id, w.s FROM c JOIN w ON c.k = w.k"},
	{name: "join_over_join", sql: "SELECT p.id, b.id, c.id FROM p JOIN b ON p.k = b.k JOIN c ON b.k2 = c.k2 AND c.id < 6 WHERE p.id < 1500"},
	// The outer join's probe side is a join whose build fails under the
	// budget, after the outer join has built.
	{name: "left_under_join", sql: "SELECT c.id, w.id, c2.id FROM c LEFT JOIN w ON c.k = w.k JOIN c AS c2 ON c.k2 = c2.k2", overBudget: true},
	{name: "keyless_over_join", sql: "SELECT p.id, b.id, c.id FROM p JOIN b ON p.s = b.s JOIN c ON p.x < c.x - 900 WHERE p.id < 600"},
}

// TestJoinDifferential checks the join against the row engine's nested
// loop at one, two and four workers, unbudgeted and under a 1MB
// memory_limit. Unbudgeted inner joins must return the rows in the
// reference's order (probe order, then build order). The rest compare as
// multisets: under the budget an Auto join may have degraded to the
// merge join, whose order is the sort's, and a LEFT join pads a probe
// chunk's partnerless rows after that chunk's matches, not in place.
func TestJoinDifferential(t *testing.T) {
	want := make([][]string, len(joinPalette))
	ref := joinDB(t, 1, "")
	for i, q := range joinPalette {
		rows, err := oracle.Query(ref.Internal(), q.sql)
		if err != nil {
			t.Fatalf("row engine %s: %v", q.name, err)
		}
		for _, row := range rows {
			cells := make([]string, len(row))
			for c, v := range row {
				cells[c] = v.String()
			}
			want[i] = append(want[i], strings.Join(cells, "|"))
		}
	}
	for _, threads := range []int{1, 2, 4} {
		for _, budget := range []string{"", "1MB"} {
			db := joinDB(t, threads, budget)
			for i, q := range joinPalette {
				if q.overBudget && budget != "" {
					if _, err := db.Query(q.sql); err == nil || !strings.Contains(err.Error(), "memory limit exceeded") {
						t.Fatalf("threads=%d budget=%q %s: %v, want the out-of-memory error", threads, budget, q.name, err)
					}
					if used := db.MemoryUsed(); used != 0 {
						t.Fatalf("threads=%d budget=%q %s: %d pool bytes still reserved after the failed query", threads, budget, q.name, used)
					}
					continue
				}
				var got []string
				for _, row := range queryAll(t, db, q.sql) {
					got = append(got, strings.Join(row, "|"))
				}
				exp := want[i]
				if budget != "" || strings.Contains(q.sql, "LEFT") {
					exp = append([]string(nil), exp...)
					sort.Strings(exp)
					sort.Strings(got)
				}
				if len(got) != len(exp) {
					t.Fatalf("threads=%d budget=%q %s: %d rows, row engine %d", threads, budget, q.name, len(got), len(exp))
				}
				for r := range exp {
					if got[r] != exp[r] {
						t.Fatalf("threads=%d budget=%q %s row %d: got %q, row engine %q", threads, budget, q.name, r, got[r], exp[r])
					}
				}
			}
			if used := db.MemoryUsed(); used != 0 {
				t.Fatalf("threads=%d budget=%q: %d pool bytes still reserved after the palette", threads, budget, used)
			}
		}
	}
}

// joinGolden is what the parent commit (PR 17: a hash join with two
// builds, a separate nested-loop operator, boxed cell-at-a-time row
// assembly) returned for the hash and keyless shapes: row count, chunk
// count and an FNV-1a hash over every chunk's length and rows, identical
// there at 1, 2 and 4 threads.
var joinGolden = map[string]string{
	"inner":                  "rows=10840 chunks=13 fnv=68ec965b15151bcc",
	"left":                   "rows=11873 chunks=17 fnv=4a28d27b4bc8b7d6",
	"cross":                  "rows=100000 chunks=98 fnv=ec12ea1474028873",
	"nonequi":                "rows=13099 chunks=465 fnv=02d62a9330f6e52d",
	"left_nonequi":           "rows=15349 chunks=468 fnv=9037eecb27f6144c",
	"equi_extra":             "rows=5284 chunks=13 fnv=037dec184f45bda2",
	"left_extra_rejects_all": "rows=4000 chunks=4 fnv=a8eb4a0765c80f55",
	"multi_key":              "rows=2361 chunks=5 fnv=235cd36f8c3b5f96",
	"varchar_key":            "rows=6307 chunks=7 fnv=323c05c72440a14e",
	"double_key":             "rows=2539 chunks=3 fnv=90eea23d06202ec3",
	"varchar_double_key":     "rows=4016 chunks=8 fnv=50499fa2f5041c92",
	"computed_key":           "rows=10840 chunks=13 fnv=ec7c599970375163",
	"empty_build":            "rows=4000 chunks=4 fnv=6b63d578e0cb4a87",
	"empty_probe":            "rows=0 chunks=0 fnv=cbf29ce484222325",
	"empty_cross":            "rows=0 chunks=0 fnv=cbf29ce484222325",
	"big_build":              "rows=1962 chunks=2 fnv=19f0133a2593f9bb",
	"join_over_join":         "rows=8101 chunks=61 fnv=d544a74bc1a67d9c",
	"left_under_join":        "rows=16931 chunks=18 fnv=7d4d44dd2118d448",
	"keyless_over_join":      "rows=842 chunks=52 fnv=ea086e12be5b25d7",
}

func joinFingerprint(t *testing.T, db *quack.DB, sql string) string {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	h := fnv.New64a()
	nrows, nchunks := 0, 0
	for c := rows.NextChunk(); c != nil; c = rows.NextChunk() {
		fmt.Fprintf(h, "#%d\n", c.Len())
		for r := 0; r < c.Len(); r++ {
			for _, col := range c.Cols {
				fmt.Fprintf(h, "%s|", col.Get(r).String())
			}
			fmt.Fprintln(h)
		}
		nrows += c.Len()
		nchunks++
	}
	return fmt.Sprintf("rows=%d chunks=%d fnv=%016x", nrows, nchunks, h.Sum64())
}

// TestJoinOutputIdenticalToParent pins values, row order and chunk
// boundaries of the hash and keyless joins to what the parent commit
// produced, at every worker count.
func TestJoinOutputIdenticalToParent(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		db := joinDB(t, threads, "")
		for _, q := range joinPalette {
			got := joinFingerprint(t, db, q.sql)
			if want := joinGolden[q.name]; got != want {
				t.Errorf("threads=%d %s:\n got %s\nwant %s", threads, q.name, got, want)
			}
		}
	}
}

// breakerPalette is every shape whose operators sit above a join or a
// breaker: a breaker fed by a join's probe, a join built from a join, a
// join probing a join, stages over an aggregate, and a window without
// PARTITION BY whose wide general frame spans one 20k-row partition.
var breakerPalette = []struct{ name, sql string }{
	{"agg_over_join", "SELECT b.s, count(*), sum(b.d), sum(p.d) FROM p JOIN b ON p.k = b.k GROUP BY b.s"},
	{"agg_over_join_dup", "SELECT p.id % 5, count(*), sum(b.d), sum(p.d * 0.1) FROM p JOIN b ON p.k = b.k WHERE p.k = 7 GROUP BY p.id % 5"},
	// Under the 1MB budget the join falls back to the merge join.
	{"agg_over_fallback", "SELECT c.k2, count(*), sum(w.d), min(w.s) FROM c JOIN w ON c.k = w.k GROUP BY c.k2"},
	{"sort_over_join", "SELECT p.id, b.id, b.k2 FROM p JOIN b ON p.k = b.k ORDER BY b.k2"},
	{"window_over_join", "SELECT p.id, b.id, row_number() OVER (PARTITION BY b.k2 ORDER BY p.x), sum(b.d) OVER (PARTITION BY b.k2 ORDER BY p.x) FROM p JOIN b ON p.k = b.k"},
	{"build_is_join", "SELECT c.id, j.pid, j.bid FROM c JOIN (SELECT p.id AS pid, b.id AS bid, b.k2 AS k2 FROM p JOIN b ON p.k = b.k WHERE p.id < 1500) AS j ON c.k2 = j.k2 WHERE c.id < 6"},
	{"left_over_join", "SELECT p.id, b.id, c.id FROM p JOIN b ON p.k = b.k LEFT JOIN c ON b.k2 = c.k2 AND c.id < 6 WHERE p.id < 1500"},
	{"having_project", "SELECT k2, count(*) * 2, sum(d) + 1 FROM w GROUP BY k2 HAVING count(*) > 3"},
	{"window_wide_frame", "SELECT id, sum(x) OVER (ORDER BY k2, id ROWS BETWEEN 100 PRECEDING AND 100 FOLLOWING), min(d) OVER (ORDER BY k2, id ROWS BETWEEN 100 PRECEDING AND 100 FOLLOWING), sum(d) OVER (ORDER BY k2, id ROWS BETWEEN 100 PRECEDING AND 100 FOLLOWING) FROM w WHERE id < 20000"},
}

// breakerGolden is what the parent commit (stages above a breaker or a
// join on an exchange, a join drained into the breaker above it on one
// goroutine) returned for breakerPalette, identical there at 1, 2 and 4
// threads; keyed by shape and memory_limit.
var breakerGolden = map[string]string{
	"agg_over_join/":        "rows=301 chunks=1 fnv=086bcc475306ea17",
	"agg_over_join/1MB":     "rows=301 chunks=1 fnv=086bcc475306ea17",
	"agg_over_join_dup/":    "rows=3 chunks=1 fnv=5251686a4470fd48",
	"agg_over_join_dup/1MB": "rows=3 chunks=1 fnv=5251686a4470fd48",
	"agg_over_fallback/":    "rows=5 chunks=1 fnv=96babb8e019ecc01",
	"agg_over_fallback/1MB": "rows=5 chunks=1 fnv=f6e48d62e2ab8459",
	"sort_over_join/":       "rows=10840 chunks=11 fnv=03698784651007c1",
	"sort_over_join/1MB":    "rows=10840 chunks=11 fnv=03698784651007c1",
	"window_over_join/":     "rows=10840 chunks=13 fnv=2920833107c244ee",
	"window_over_join/1MB":  "rows=10840 chunks=13 fnv=2920833107c244ee",
	"build_is_join/":        "rows=8101 chunks=8 fnv=bf035319fbc35671",
	"build_is_join/1MB":     "rows=8101 chunks=8 fnv=bf035319fbc35671",
	"left_over_join/":       "rows=10172 chunks=69 fnv=85fcf2be6ace65bd",
	"left_over_join/1MB":    "rows=10172 chunks=69 fnv=85fcf2be6ace65bd",
	"having_project/":       "rows=5 chunks=1 fnv=e0f590d8fb64630a",
	"having_project/1MB":    "rows=5 chunks=1 fnv=e0f590d8fb64630a",
	"window_wide_frame/":    "rows=20000 chunks=20 fnv=08e13443dd643f9b",
	"window_wide_frame/1MB": "rows=20000 chunks=20 fnv=08e13443dd643f9b",
}

// valueFingerprint is joinFingerprint with DOUBLEs hashed by their bits,
// so a sum folded in another order cannot hide behind its rendering. A
// NaN is hashed as NaN: which payload survives NaN + NaN depends on the
// operand order the compiler picked (a -race build picks differently),
// and the engine treats every NaN as one value anyway.
func valueFingerprint(t *testing.T, db *quack.DB, sql string) string {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	h := fnv.New64a()
	nrows, nchunks := 0, 0
	for c := rows.NextChunk(); c != nil; c = rows.NextChunk() {
		fmt.Fprintf(h, "#%d\n", c.Len())
		for r := 0; r < c.Len(); r++ {
			for _, col := range c.Cols {
				if f := col.F64; col.Type == quack.Double && !col.IsNull(r) && !math.IsNaN(f[r]) {
					fmt.Fprintf(h, "%x|", math.Float64bits(f[r]))
				} else {
					fmt.Fprintf(h, "%s|", col.Get(r).String())
				}
			}
			fmt.Fprintln(h)
		}
		nrows += c.Len()
		nchunks++
	}
	return fmt.Sprintf("rows=%d chunks=%d fnv=%016x", nrows, nchunks, h.Sum64())
}

// TestBreakerOverJoinIdenticalToParent pins values (DOUBLEs by bits), row
// order and chunk boundaries of every breakerPalette shape to what the
// parent commit produced, at 1, 2 and 4 workers, unbudgeted and under a
// 1MB memory_limit.
func TestBreakerOverJoinIdenticalToParent(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		for _, budget := range []string{"", "1MB"} {
			db := joinDB(t, threads, budget)
			for _, q := range breakerPalette {
				key := q.name + "/" + budget
				got := valueFingerprint(t, db, q.sql)
				if want := breakerGolden[key]; got != want {
					t.Errorf("threads=%d %s:\n got %q\nwant %q", threads, key, got, want)
				}
			}
			if used := db.MemoryUsed(); used != 0 {
				t.Fatalf("threads=%d budget=%q: %d pool bytes still reserved after the palette", threads, budget, used)
			}
		}
	}
}
