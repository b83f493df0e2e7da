package quack_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/quack"
)

// differentialDB builds a multi-segment fixture (tens of segments, so
// parallel scans really fan out) used by every differential test. The
// data is deterministic, NULL-bearing, and skewed enough to exercise
// group-by, join and sort edge cases.
func differentialDB(t *testing.T, threads int) *quack.DB {
	return differentialDBWith(t, quack.WithThreads(threads))
}

// differentialDBWith is differentialDB with arbitrary open options — no
// options means the engine-wide default thread count applies
// (QUACK_THREADS, then GOMAXPROCS), which is what the CI differential
// matrix varies.
func differentialDBWith(t *testing.T, opts ...quack.Option) *quack.DB {
	t.Helper()
	db, err := quack.Open(":memory:", opts...)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })

	mustExec(t, db, "CREATE TABLE facts (id BIGINT, grp VARCHAR, qty BIGINT, price DOUBLE, flag BOOLEAN)")
	app, err := db.Appender("facts")
	if err != nil {
		t.Fatalf("appender: %v", err)
	}
	groups := []string{"north", "south", "east", "west", "emea", "apac"}
	const rows = 30_000 // ~30 segments
	for i := 0; i < rows; i++ {
		var grp any = groups[(i*7)%len(groups)]
		var qty any = int64((i * 13) % 500)
		var price any = float64((i*31)%1000) / 4
		var flag any = i%3 == 0
		if i%97 == 0 {
			grp = nil
		}
		if i%89 == 0 {
			qty = nil
		}
		if i%83 == 0 {
			price = nil
		}
		if err := app.AppendRow(int64(i), grp, qty, price, flag); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatalf("close appender: %v", err)
	}

	mustExec(t, db, "CREATE TABLE dims (key BIGINT, label VARCHAR)")
	dapp, err := db.Appender("dims")
	if err != nil {
		t.Fatalf("appender: %v", err)
	}
	for i := 0; i < 5_000; i++ {
		var label any = fmt.Sprintf("label-%d", i%700)
		if i%101 == 0 {
			label = nil
		}
		if err := dapp.AppendRow(int64(i*3), label); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := dapp.Close(); err != nil {
		t.Fatalf("close appender: %v", err)
	}
	return db
}

// differentialQueries covers every query shape of sql_test.go: filters,
// projections, group-by aggregation (global, grouped, HAVING), joins
// (inner, left, expression keys, non-equi, three-way), sorts, limits
// and UNION ALL.
var differentialQueries = []string{
	// Scans, filters, projections.
	"SELECT id, qty * 2, price + 1.5 FROM facts WHERE qty > 250",
	"SELECT id FROM facts WHERE grp IS NULL",
	"SELECT id, flag FROM facts WHERE flag AND id % 7 = 0",
	"SELECT id FROM facts WHERE grp LIKE '%ea%' AND price IS NOT NULL",
	"SELECT CASE WHEN qty > 400 THEN 'hot' WHEN qty > 200 THEN 'warm' ELSE 'cold' END, id FROM facts WHERE id < 5000",
	// Aggregation: global, grouped, expression groups, HAVING.
	"SELECT count(*), count(qty), sum(qty), avg(price), min(price), max(qty) FROM facts",
	"SELECT grp, count(*), sum(qty), avg(price) FROM facts GROUP BY grp",
	"SELECT id % 10, count(*), max(price) FROM facts GROUP BY 1",
	"SELECT grp, count(*) FROM facts GROUP BY grp HAVING count(*) > 4000",
	"SELECT count(*) FROM facts WHERE qty IS NULL",
	"SELECT grp, count(DISTINCT flag) FROM facts GROUP BY grp",
	"SELECT sum(DISTINCT qty % 5) FROM facts",
	// High-cardinality grouping (3750 groups): under the CI matrix's
	// QUACK_MEMORY_LIMIT leg this is the query that pushes the
	// aggregation into its partition-spilling path.
	"SELECT id - id % 8, count(*), sum(price), min(qty) FROM facts GROUP BY 1",
	// Joins.
	"SELECT count(*), sum(qty) FROM facts JOIN dims ON id = key",
	"SELECT grp, count(*) FROM facts JOIN dims ON id = key GROUP BY grp",
	"SELECT count(*) FROM facts LEFT JOIN dims ON id = key WHERE label IS NULL",
	"SELECT count(*) FROM facts JOIN dims ON id + 1 = key + 1 AND flag",
	"SELECT count(*) FROM facts a JOIN facts b ON a.id = b.id + 6000",
	"SELECT count(*) FROM dims a JOIN dims b ON a.label = b.label",
	"SELECT count(*) FROM dims a, dims b WHERE a.key < b.key AND a.key > 14500",
	// Sorts and limits.
	"SELECT id, qty FROM facts WHERE id % 11 = 0 ORDER BY qty DESC, id",
	"SELECT price FROM facts ORDER BY price NULLS FIRST LIMIT 40",
	"SELECT id FROM facts WHERE qty > 490 ORDER BY id LIMIT 25 OFFSET 10",
	"SELECT id FROM facts WHERE id < 3000 LIMIT 17",
	// Union.
	"SELECT id FROM facts WHERE id < 1030 UNION ALL SELECT key FROM dims WHERE key < 90 ORDER BY 1",
	// Window functions (sorted partitions, frames, ranking, lag/lead).
	"SELECT id, row_number() OVER (PARTITION BY grp ORDER BY qty, id) FROM facts WHERE id < 9000",
	"SELECT id, sum(price) OVER (PARTITION BY grp ORDER BY id) FROM facts WHERE id % 3 = 0",
	"SELECT grp, rank() OVER (ORDER BY count(*) DESC, grp) FROM facts GROUP BY grp",
	"SELECT id, avg(qty) OVER (ORDER BY id ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) FROM facts WHERE id < 5000",
	"SELECT id, lag(qty, 2) OVER (PARTITION BY flag ORDER BY id) FROM facts WHERE id < 4000 ORDER BY id",
}

// TestParallelMatchesSequential is the differential guarantee of the
// morsel-driven engine: for every query shape, WithThreads(n) must be
// row-for-row identical — including row order — to WithThreads(1).
func TestParallelMatchesSequential(t *testing.T) {
	seq := differentialDB(t, 1)
	for _, threads := range []int{2, 4, 8} {
		par := differentialDB(t, threads)
		for _, q := range differentialQueries {
			want := queryAll(t, seq, q)
			got := queryAll(t, par, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("threads=%d query %q diverges:\n got (%d rows): %.300v\nwant (%d rows): %.300v",
					threads, q, len(got), got, len(want), want)
			}
		}
	}
}

// TestDifferentialDefaultThreads runs every differential query on a
// database opened WITHOUT an explicit thread count, so the engine-wide
// default applies — QUACK_THREADS in the CI matrix, GOMAXPROCS
// otherwise — and compares against the single-threaded baseline. This
// is the test that makes the matrix legs genuinely different
// configurations.
func TestDifferentialDefaultThreads(t *testing.T) {
	seq := differentialDB(t, 1)
	def := differentialDBWith(t)
	for _, q := range differentialQueries {
		want := queryAll(t, seq, q)
		got := queryAll(t, def, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("default-thread query %q diverges:\n got (%d rows): %.300v\nwant (%d rows): %.300v",
				q, len(got), got, len(want), want)
		}
	}
}

// TestPragmaThreadsSwitchesEngine re-runs the differential suite on ONE
// database, flipping PRAGMA threads between queries — the two engines
// must agree on identical storage, and the pragma must be readable.
func TestPragmaThreadsSwitchesEngine(t *testing.T) {
	db := differentialDB(t, 4)
	mustExec(t, db, "PRAGMA threads=7")
	if got := queryAll(t, db, "PRAGMA threads"); got[0][0] != "7" {
		t.Fatalf("PRAGMA threads readback = %v", got)
	}
	for _, q := range differentialQueries {
		mustExec(t, db, "PRAGMA threads=1")
		want := queryAll(t, db, q)
		mustExec(t, db, "PRAGMA threads=6")
		got := queryAll(t, db, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %q diverges across PRAGMA threads:\n got: %.300v\nwant: %.300v", q, got, want)
		}
	}
}

// TestParallelSeesOwnTransactionWrites: a parallel scan must
// reconstruct the same MVCC snapshot as the sequential one, including
// the transaction's own uncommitted writes and deletes.
func TestParallelSeesOwnTransactionWrites(t *testing.T) {
	db := differentialDB(t, 4)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec("UPDATE facts SET qty = 999999 WHERE id % 500 = 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM facts WHERE id % 501 = 0"); err != nil {
		t.Fatal(err)
	}
	run := func(threads int) [][]string {
		if _, err := tx.Exec(fmt.Sprintf("PRAGMA threads=%d", threads)); err != nil {
			t.Fatal(err)
		}
		rows, err := tx.Query("SELECT grp, count(*), sum(qty) FROM facts GROUP BY grp")
		if err != nil {
			t.Fatal(err)
		}
		var out [][]string
		for rows.Next() {
			row := make([]string, len(rows.Columns()))
			for i := range row {
				row[i] = rows.Value(i).String()
			}
			out = append(out, row)
		}
		return out
	}
	want := run(1)
	got := run(8)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("snapshot diverges:\n got: %v\nwant: %v", got, want)
	}
	// The uncommitted writes must be visible inside the transaction.
	if _, err := tx.Exec("PRAGMA threads=8"); err != nil {
		t.Fatal(err)
	}
	rows, err := tx.Query("SELECT count(*) FROM facts WHERE qty = 999999")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	var n int64
	rows.Scan(&n)
	if n == 0 {
		t.Fatal("parallel scan does not see own writes")
	}
}

// TestParallelQueryErrorsPropagate: a runtime error inside a worker
// (modulo by zero mid-pipeline) must surface as a query error at every
// thread count without hanging or leaking goroutines.
func TestParallelQueryErrorsPropagate(t *testing.T) {
	for _, threads := range []int{1, 4} {
		db := differentialDB(t, threads)
		if _, err := db.Query("SELECT id % (id - id) FROM facts"); err == nil {
			t.Fatalf("threads=%d: modulo by zero did not error", threads)
		}
		// The database must remain usable after the failure.
		got := queryAll(t, db, "SELECT count(*) FROM facts")
		if len(got) != 1 {
			t.Fatalf("threads=%d: post-error query broken: %v", threads, got)
		}
	}
}

// TestAggSpillSurfaced pins the visibility of budgeted aggregation:
// under an enforced memory_limit a grouped aggregation spills
// partition-wise state runs — the database counts spill events and
// bytes (agg_spill_partitions_total / agg_spill_bytes_total in the
// metrics registry) and EXPLAIN calls the behaviour out.
func TestAggSpillSurfaced(t *testing.T) {
	// The budget sits well above the floor (the in-flight morsels'
	// distinct groups, which can never spill) and well below the total
	// aggregate state (~7MB for 40k distinct groups), so spilling is
	// certain without starving the accumulation itself.
	db, err := quack.Open(":memory:", quack.WithThreads(4), quack.WithMemoryLimit(2<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (g BIGINT, v BIGINT)")
	app, err := db.Appender("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40_000; i++ {
		if err := app.AppendRow(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	const agg = "SELECT g, count(*), sum(v) FROM t GROUP BY g"

	if got := db.Metrics()["agg_spill_partitions_total"]; got != 0 {
		t.Fatalf("spill counter before any aggregation = %d", got)
	}
	plan := queryAll(t, db, "EXPLAIN "+agg)
	found := false
	for _, row := range plan {
		if strings.Contains(row[0], "aggregation spills partition-wise under memory_limit") {
			found = true
		}
	}
	if !found {
		t.Fatalf("EXPLAIN does not surface the spill behaviour:\n%v", plan)
	}
	if rows := queryAll(t, db, agg); len(rows) != 40_000 {
		t.Fatalf("aggregation returned %d groups, want 40000", len(rows))
	}
	if db.Metrics()["agg_spill_partitions_total"] == 0 {
		t.Fatal("spill counter still 0 after a budgeted aggregation that must spill")
	}
	if db.Metrics()["agg_spill_bytes_total"] == 0 {
		t.Fatal("spilled-bytes counter still 0 after a spilling aggregation")
	}

	// Without a memory limit nothing spills and EXPLAIN stays silent.
	db2, err := quack.Open(":memory:", quack.WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// An explicitly unlimited database must ignore any harness-set
	// QUACK_MEMORY_LIMIT; force that regardless of the test environment.
	mustExec(t, db2, "PRAGMA memory_limit=-1")
	mustExec(t, db2, "CREATE TABLE t (g BIGINT, v BIGINT)")
	mustExec(t, db2, "INSERT INTO t VALUES (1, 1), (2, 2)")
	for _, row := range queryAll(t, db2, "EXPLAIN "+agg) {
		if strings.Contains(row[0], "memory_limit") {
			t.Fatalf("unlimited database EXPLAIN mentions spilling: %v", row)
		}
	}
	queryAll(t, db2, agg)
	if got := db2.Metrics()["agg_spill_partitions_total"]; got != 0 {
		t.Fatalf("unlimited database counted %d spills", got)
	}
}
