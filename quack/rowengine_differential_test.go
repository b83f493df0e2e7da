package quack_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/quack"
)

// The vectorized engine has one implementation of every operator, so
// comparing it with itself at another thread count only proves that the
// two drivers agree. The independent oracle is the tuple-at-a-time row
// engine (internal/oracle): different scan loop, different
// expression interpreter, different aggregate state, update, finish and
// sort code, sharing only the logical plan and the DISTINCT value
// encoding. This suite
// generates queries over the core both engines support — filter,
// project, GROUP BY with count/sum/min/max/avg, ORDER BY, LIMIT — and
// requires the same rows in the same order.

// rowEngineDB builds the fixture: NULLs in every nullable column, a
// DOUBLE column with NaN (two payloads), duplicate-heavy keys. DOUBLE
// values are multiples of 0.25 of bounded size, so every sum is exact
// and does not depend on the reduction order (the row engine folds left
// to right, the vectorized engine per morsel).
func rowEngineDB(t *testing.T, threads int, budget string) *quack.DB {
	t.Helper()
	db, err := quack.Open(":memory:", quack.WithThreads(threads))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, "CREATE TABLE r (id BIGINT, a BIGINT, b INTEGER, d DOUBLE, s VARCHAR)")
	app, err := db.Appender("r")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 9000; i++ {
		var a, b, d, s any
		if rng.Intn(9) != 0 {
			a = int64(rng.Intn(41) - 20)
		}
		if rng.Intn(13) != 0 {
			b = int32(rng.Intn(7))
		}
		switch k := rng.Intn(20); {
		case k == 0:
		case k == 1:
			d = math.NaN()
			if i%2 == 0 {
				d = math.Float64frombits(0x7ff8000000000dea) // another NaN, the same group
			}
		default:
			d = float64(rng.Intn(4001)-2000) * 0.25
		}
		if rng.Intn(11) != 0 {
			s = fmt.Sprintf("s%02d", rng.Intn(23))
		}
		if err := app.AppendRow(int64(i), a, b, d, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	// Some MVCC history for the scans to reconstruct.
	mustExec(t, db, "DELETE FROM r WHERE id % 97 = 3")
	mustExec(t, db, "UPDATE r SET a = a + 1 WHERE id % 10 = 4")
	if budget != "" {
		mustExec(t, db, "PRAGMA memory_limit='"+budget+"'")
	}
	return db
}

// rowEngineQueries generates n queries from a seed.
func rowEngineQueries(rng *rand.Rand, n int) []string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	pred := func() string {
		atoms := []string{
			fmt.Sprintf("a > %d", rng.Intn(30)-15),
			fmt.Sprintf("a <= %d", rng.Intn(30)-15),
			fmt.Sprintf("b = %d", rng.Intn(7)),
			fmt.Sprintf("b <> %d", rng.Intn(7)),
			fmt.Sprintf("d < %g", float64(rng.Intn(800)-400)*0.25),
			fmt.Sprintf("d >= %g", float64(rng.Intn(800)-400)*0.25),
			fmt.Sprintf("s = 's%02d'", rng.Intn(23)),
			fmt.Sprintf("id %% %d = %d", 2+rng.Intn(5), rng.Intn(2)),
			"a IS NULL", "d IS NOT NULL", "s IS NOT NULL",
			fmt.Sprintf("a + b > %d", rng.Intn(20)-5),
		}
		p := atoms[rng.Intn(len(atoms))]
		for rng.Intn(3) == 0 {
			q := atoms[rng.Intn(len(atoms))]
			switch rng.Intn(3) {
			case 0:
				p = "(" + p + " AND " + q + ")"
			case 1:
				p = "(" + p + " OR " + q + ")"
			default:
				p = "(" + p + " AND NOT " + q + ")"
			}
		}
		return p
	}
	order := func(cols ...string) string {
		var keys []string
		for _, c := range cols {
			if rng.Intn(2) == 0 {
				continue
			}
			keys = append(keys, c+pick("", " ASC", " DESC")+pick("", " NULLS FIRST", " NULLS LAST"))
		}
		if len(keys) == 0 {
			return ""
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		return " ORDER BY " + strings.Join(keys, ", ")
	}
	limit := func(maxLimit, maxOffset int) string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf(" LIMIT %d", 1+rng.Intn(maxLimit))
		case 1:
			return fmt.Sprintf(" LIMIT %d OFFSET %d", 1+rng.Intn(maxLimit), rng.Intn(maxOffset))
		}
		return ""
	}
	where := func() string {
		if rng.Intn(4) == 0 {
			return ""
		}
		return " WHERE " + pred()
	}
	var out []string
	for len(out) < n {
		if rng.Intn(2) == 0 { // filter + project (+ order + limit)
			proj := []string{"id", pick("a", "a * 2 + 1", "a - b", "-a"), pick("d", "d * 0.5", "d + a", "b"), "s"}
			out = append(out, "SELECT "+strings.Join(proj, ", ")+" FROM r"+where()+order("a", "d", "s", "b")+limit(1500, 400))
			continue
		}
		// Group keys: NULL-able BIGINT/INTEGER/VARCHAR/DOUBLE columns (d
		// carries NaN under two payloads: one group), computed keys, and
		// two-column keys mixing fixed-width and VARCHAR parts.
		keySets := [][]string{{"a"}, {"b"}, {"s"}, {"b", "s"}, {"a % 5"}, {"d"},
			{"d", "b"}, {"a", "s"}, {"d * 0.5"}, {"s", "d"}, {"b", "a % 3"}}
		keys := keySets[rng.Intn(len(keySets))]
		aggs := []string{"count(*)"}
		for _, f := range []string{"count", "sum", "min", "max", "avg"} {
			if rng.Intn(2) == 0 {
				aggs = append(aggs, f+"("+pick("a", "b", "d", "id")+")")
			}
		}
		if rng.Intn(3) == 0 {
			aggs = append(aggs, pick("min(s)", "max(s)", "count(s)"))
		}
		// One in eight is a global aggregate; the rest group, and may
		// order by their key columns' ordinals.
		sel, ords := aggs, []string(nil)
		grouped := rng.Intn(8) != 0
		if grouped {
			sel = append(append([]string(nil), keys...), aggs...)
			for i := range keys {
				ords = append(ords, fmt.Sprint(i+1))
			}
		}
		q := "SELECT " + strings.Join(sel, ", ") + " FROM r" + where()
		if grouped {
			q += " GROUP BY " + strings.Join(keys, ", ")
		}
		out = append(out, q+order(ords...)+limit(40, 6))
	}
	return out
}

// TestRowEngineDifferential checks the vectorized engine against the
// row engine at one worker (inline driver) and four (scheduler driver),
// unbudgeted and under a 1MB memory_limit that makes the vectorized
// sorts and aggregations spill. The row engine itself ignores the
// budget (it is the unoptimized baseline), so it is the same reference
// in every configuration.
func TestRowEngineDifferential(t *testing.T) {
	queries := rowEngineQueries(rand.New(rand.NewSource(20200112)), fuzzIters(60))
	for _, threads := range []int{1, 4} {
		for _, budget := range []string{"", "1MB"} {
			db := rowEngineDB(t, threads, budget)
			for _, q := range queries {
				want, err := oracle.Query(db.Internal(), q)
				if err != nil {
					t.Fatalf("row engine %q: %v", q, err)
				}
				got := queryAll(t, db, q)
				if len(got) != len(want) {
					t.Fatalf("threads=%d budget=%q %q: %d rows, row engine %d", threads, budget, q, len(got), len(want))
				}
				for i, row := range want {
					for c, v := range row {
						if v.String() != got[i][c] {
							t.Fatalf("threads=%d budget=%q %q row %d col %d: got %q, row engine %q",
								threads, budget, q, i, c, got[i][c], v.String())
						}
					}
				}
			}
		}
	}
}
