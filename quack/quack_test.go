package quack_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/quack"
)

// fuzzIters resolves the iteration count for a differential fuzz loop:
// the QUACK_FUZZ_ITERS environment variable when set (the nightly
// workflow raises it well past the per-push defaults), def otherwise.
func fuzzIters(def int) int {
	if env := os.Getenv("QUACK_FUZZ_ITERS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func openMem(t *testing.T) *quack.DB {
	t.Helper()
	db, err := quack.Open(":memory:")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, db *quack.DB, sql string, args ...any) int64 {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return n
}

func queryAll(t *testing.T, db *quack.DB, sql string, args ...any) [][]string {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
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

func TestQuickstart(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE items (name VARCHAR, price DOUBLE, qty INTEGER)")
	mustExec(t, db, "INSERT INTO items VALUES ('apple', 1.5, 10), ('pear', 2.0, 5), ('plum', 0.5, 100)")

	got := queryAll(t, db, "SELECT name, price * qty AS total FROM items WHERE qty >= 10 ORDER BY total DESC")
	want := [][]string{{"plum", "50"}, {"apple", "15"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAggregationAndGroupBy(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (g VARCHAR, v BIGINT)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 3), ('b', NULL), ('c', NULL)")

	got := queryAll(t, db, "SELECT g, count(*), count(v), sum(v), avg(v), min(v), max(v) FROM t GROUP BY g ORDER BY g")
	want := [][]string{
		{"a", "2", "2", "3", "1.5", "1", "2"},
		{"b", "2", "1", "3", "3", "3", "3"},
		{"c", "1", "0", "NULL", "NULL", "NULL", "NULL"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestJoins(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE l (id BIGINT, name VARCHAR)")
	mustExec(t, db, "CREATE TABLE r (id BIGINT, score BIGINT)")
	mustExec(t, db, "INSERT INTO l VALUES (1,'one'), (2,'two'), (3,'three')")
	mustExec(t, db, "INSERT INTO r VALUES (1,10), (1,11), (3,30), (4,40)")

	got := queryAll(t, db, "SELECT l.name, r.score FROM l JOIN r ON l.id = r.id ORDER BY r.score")
	want := [][]string{{"one", "10"}, {"one", "11"}, {"three", "30"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("inner join: got %v want %v", got, want)
	}

	got = queryAll(t, db, "SELECT l.name, r.score FROM l LEFT JOIN r ON l.id = r.id ORDER BY l.id, r.score")
	want = [][]string{{"one", "10"}, {"one", "11"}, {"two", "NULL"}, {"three", "30"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("left join: got %v want %v", got, want)
	}
}

func TestBulkUpdateMissingValues(t *testing.T) {
	// The paper's canonical ETL query: UPDATE t SET d = NULL WHERE d = -999.
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (id BIGINT, d BIGINT)")
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		v := int64(i)
		if i%3 == 0 {
			v = -999
		}
		if _, err := tx.Exec("INSERT INTO t VALUES (?, ?)", int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	n := mustExec(t, db, "UPDATE t SET d = NULL WHERE d = -999")
	if n != 1000 {
		t.Fatalf("updated %d rows, want 1000", n)
	}
	got := queryAll(t, db, "SELECT count(*), count(d) FROM t")
	if fmt.Sprint(got) != fmt.Sprint([][]string{{"3000", "2000"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestDeleteAndCount(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (v BIGINT)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(2),(3),(4),(5)")
	if n := mustExec(t, db, "DELETE FROM t WHERE v % 2 = 0"); n != 2 {
		t.Fatalf("deleted %d, want 2", n)
	}
	got := queryAll(t, db, "SELECT sum(v) FROM t")
	if got[0][0] != "9" {
		t.Fatalf("sum after delete = %s, want 9", got[0][0])
	}
}

func TestTransactionsIsolationAndRollback(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (v BIGINT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	// Uncommitted insert is invisible outside.
	if got := queryAll(t, db, "SELECT count(*) FROM t"); got[0][0] != "1" {
		t.Fatalf("dirty read: %v", got)
	}
	// ... but visible inside.
	rows, err := tx.Query("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	var n int64
	rows.Scan(&n)
	if n != 2 {
		t.Fatalf("own write invisible: %d", n)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := queryAll(t, db, "SELECT count(*) FROM t"); got[0][0] != "1" {
		t.Fatalf("rollback failed: %v", got)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.qdb")
	db, err := quack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id BIGINT, s VARCHAR)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'hello'), (2, 'world'), (3, NULL)")
	mustExec(t, db, "UPDATE t SET s = 'earth' WHERE id = 2")
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db2, err := quack.Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	got := queryAll(t, db2, "SELECT id, s FROM t ORDER BY id")
	want := [][]string{{"1", "hello"}, {"2", "earth"}, {"3", "NULL"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after reopen: got %v want %v", got, want)
	}
}

// crashCopy copies a file database and its WAL as a crash would leave
// them, into a directory of its own, and returns the copy's path: opening
// it replays every committed record the WAL holds.
func crashCopy(t *testing.T, path string) string {
	t.Helper()
	crash := filepath.Join(t.TempDir(), "crash.qdb")
	for _, suffix := range []string{"", ".wal"} {
		data, err := os.ReadFile(path + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crash+suffix, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return crash
}

// TestWALRecoveryWithoutCheckpoint: commits no checkpoint has folded
// into the file live only in the WAL, and a crash copy of the open
// database replays them — the CREATE, the INSERT, the UPDATE and the
// DELETE — to exactly the committed rows.
func TestWALRecoveryWithoutCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.qdb")
	db, err := quack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (id BIGINT, v VARCHAR)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')")
	mustExec(t, db, "UPDATE t SET v = 'B' WHERE id = 2")
	mustExec(t, db, "DELETE FROM t WHERE id = 3")
	const q = "SELECT id, v FROM t ORDER BY id"
	const want = "[[1 a] [2 B] [4 d]]"
	if got := fmt.Sprint(queryAll(t, db, q)); got != want {
		t.Fatalf("before the crash: %s, want %s", got, want)
	}

	replayed, err := quack.Open(crashCopy(t, path))
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(queryAll(t, replayed, q))
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after WAL replay: %s, want %s", got, want)
	}
}

func TestAppender(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (id BIGINT, v DOUBLE)")
	app, err := db.Appender("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := app.AppendRow(int64(i), float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	got := queryAll(t, db, "SELECT count(*), sum(id) FROM t")
	if fmt.Sprint(got) != fmt.Sprint([][]string{{"5000", "12497500"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestChunkInterface(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (v BIGINT)")
	app, _ := db.Appender("t")
	for i := 0; i < 2500; i++ {
		app.AppendRow(int64(i))
	}
	app.Close()
	rows, err := db.Query("SELECT v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var total, count int64
	for {
		chunk := rows.NextChunk()
		if chunk == nil {
			break
		}
		for _, v := range chunk.Cols[0].I64[:chunk.Len()] {
			total += v
		}
		count += int64(chunk.Len())
	}
	if count != 2500 || total != 2500*2499/2 {
		t.Fatalf("count=%d total=%d", count, total)
	}
}

func TestViewsAndSubqueries(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (g VARCHAR, v BIGINT)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3)")
	mustExec(t, db, "CREATE VIEW sums AS SELECT g, sum(v) AS s FROM t GROUP BY g")
	got := queryAll(t, db, "SELECT s FROM sums WHERE g = 'a'")
	if got[0][0] != "4" {
		t.Fatalf("view: %v", got)
	}
	got = queryAll(t, db, "SELECT x.s + 1 FROM (SELECT sum(v) AS s FROM t) AS x")
	if got[0][0] != "7" {
		t.Fatalf("subquery: %v", got)
	}
}

func TestDistinctUnionCase(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (v BIGINT)")
	mustExec(t, db, "INSERT INTO t VALUES (1),(1),(2),(3),(3)")
	got := queryAll(t, db, "SELECT DISTINCT v FROM t ORDER BY v")
	if fmt.Sprint(got) != fmt.Sprint([][]string{{"1"}, {"2"}, {"3"}}) {
		t.Fatalf("distinct: %v", got)
	}
	got = queryAll(t, db, "SELECT v FROM t WHERE v = 1 UNION ALL SELECT v FROM t WHERE v = 2 ORDER BY v")
	if len(got) != 3 {
		t.Fatalf("union all: %v", got)
	}
	got = queryAll(t, db, "SELECT CASE WHEN v < 2 THEN 'small' ELSE 'big' END, count(*) FROM t GROUP BY 1 ORDER BY 1")
	if fmt.Sprint(got) != fmt.Sprint([][]string{{"big", "3"}, {"small", "2"}}) {
		t.Fatalf("case: %v", got)
	}
}

func TestParams(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (v BIGINT, s VARCHAR)")
	mustExec(t, db, "INSERT INTO t VALUES (?, ?)", int64(7), "seven")
	got := queryAll(t, db, "SELECT s FROM t WHERE v = ?", int64(7))
	if got[0][0] != "seven" {
		t.Fatalf("params: %v", got)
	}
}
