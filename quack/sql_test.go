package quack_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/oracle"
)

// assertQuery runs sql and compares the printed result rows.
func assertQuery(t *testing.T, db interface {
	Query(string, ...any) (rowsIface, error)
}, sql string, want [][]string) {
	t.Helper()
	_ = db
}

type rowsIface interface{}

// checkQ is the workhorse: run a query on a fresh fixture DB and compare.
func checkQ(t *testing.T, setup []string, q string, want [][]string) {
	t.Helper()
	db := openMem(t)
	for _, s := range setup {
		mustExec(t, db, s)
	}
	got := queryAll(t, db, q)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("query %q:\n got: %v\nwant: %v", q, got, want)
	}
}

var fixture = []string{
	"CREATE TABLE nums (i INTEGER, b BIGINT, d DOUBLE, s VARCHAR, f BOOLEAN)",
	`INSERT INTO nums VALUES
		(1, 10, 1.5, 'alpha', TRUE),
		(2, 20, 2.5, 'beta', FALSE),
		(3, 30, 3.5, 'gamma', TRUE),
		(NULL, NULL, NULL, NULL, NULL)`,
}

func TestArithmeticSemantics(t *testing.T) {
	checkQ(t, fixture, "SELECT i + b, i - 1, i * 2, b / 4, b % 7 FROM nums WHERE i = 3",
		[][]string{{"33", "2", "6", "7.5", "2"}})
	// Division always yields DOUBLE.
	checkQ(t, fixture, "SELECT 7 / 2", [][]string{{"3.5"}})
	// NULL propagates through arithmetic.
	checkQ(t, fixture, "SELECT count(*) FROM nums WHERE i + 1 IS NULL AND s IS NULL", [][]string{{"1"}})
}

func TestDivisionByZeroIsError(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (v BIGINT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if _, err := db.Query("SELECT v % 0 FROM t"); err == nil {
		t.Fatal("modulo by zero succeeded")
	}
	// Integer division by zero errors; double division yields +Inf.
	if _, err := db.Query("SELECT CAST(1 AS INTEGER) / 0"); err == nil {
		// 1/0: "/" promotes to double → +Inf, not an error.
		t.Log("double division by zero tolerated (IEEE semantics)")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	// NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL otherwise.
	checkQ(t, fixture, "SELECT count(*) FROM nums WHERE f AND i > 0", [][]string{{"2"}})
	checkQ(t, fixture, "SELECT count(*) FROM nums WHERE f OR i = 2", [][]string{{"3"}})
	// NOT NULL is NULL → row filtered out.
	checkQ(t, fixture, "SELECT count(*) FROM nums WHERE NOT (i IS NULL OR i < 10)", [][]string{{"0"}})
}

func TestComparisonsAndBetween(t *testing.T) {
	checkQ(t, fixture, "SELECT s FROM nums WHERE i BETWEEN 2 AND 3 ORDER BY i",
		[][]string{{"beta"}, {"gamma"}})
	checkQ(t, fixture, "SELECT s FROM nums WHERE i NOT BETWEEN 2 AND 3",
		[][]string{{"alpha"}})
	checkQ(t, fixture, "SELECT count(*) FROM nums WHERE d >= 2.5", [][]string{{"2"}})
	checkQ(t, fixture, "SELECT count(*) FROM nums WHERE s <> 'beta'", [][]string{{"2"}})
}

func TestInList(t *testing.T) {
	checkQ(t, fixture, "SELECT s FROM nums WHERE i IN (1, 3) ORDER BY i",
		[][]string{{"alpha"}, {"gamma"}})
	checkQ(t, fixture, "SELECT s FROM nums WHERE i NOT IN (1, 2, 99)",
		[][]string{{"gamma"}})
	// Non-constant IN list falls back to OR chain.
	checkQ(t, fixture, "SELECT s FROM nums WHERE b IN (i * 10) ORDER BY i",
		[][]string{{"alpha"}, {"beta"}, {"gamma"}})
}

// TestInListWithNull: a NULL in an IN list is no member, but x = NULL is
// NULL, so a non-member's IN and NOT IN are NULL and NOT IN is never
// TRUE. Over v = 0, 1, 2, NULL (1250 rows each, five segments) at 1 and
// 4 threads, the vectorized engine and the row engine must both return
// the hand-computed values.
func TestInListWithNull(t *testing.T) {
	queries := []struct{ sql, want string }{
		{"SELECT v, v IN (1, NULL), v NOT IN (1, NULL), v NOT IN (1) FROM t WHERE id < 4 ORDER BY id",
			"[[0 NULL NULL true] [1 true false false] [2 NULL NULL true] [NULL NULL NULL NULL]]"},
		{"SELECT count(*) FROM t WHERE v IN (1, NULL)", "[[1250]]"},
		{"SELECT count(*) FROM t WHERE v NOT IN (1, NULL)", "[[0]]"},
		{"SELECT count(*) FROM t WHERE NOT (v IN (1, NULL))", "[[0]]"},
		{"SELECT count(*) FROM t WHERE v NOT IN (1)", "[[2500]]"},
		{"SELECT count(*) FROM t WHERE (v NOT IN (0, NULL)) IS NULL", "[[3750]]"},
	}
	for _, threads := range []int{1, 4} {
		db := openMem(t)
		mustExec(t, db, fmt.Sprintf("PRAGMA threads=%d", threads))
		mustExec(t, db, "CREATE TABLE t (id BIGINT, v BIGINT)")
		app, err := db.Appender("t")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			var v any = int64(i % 4)
			if i%4 == 3 {
				v = nil
			}
			if err := app.AppendRow(int64(i), v); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if got := fmt.Sprint(queryAll(t, db, q.sql)); got != q.want {
				t.Errorf("threads=%d %q: got %s, want %s", threads, q.sql, got, q.want)
			}
			ref, err := oracle.Query(db.Internal(), q.sql)
			if err != nil {
				t.Fatalf("row engine %q: %v", q.sql, err)
			}
			rows := make([][]string, len(ref))
			for i, r := range ref {
				for _, v := range r {
					rows[i] = append(rows[i], v.String())
				}
			}
			if got := fmt.Sprint(rows); got != q.want {
				t.Errorf("row engine %q: got %s, want %s", q.sql, got, q.want)
			}
		}
	}
}

func TestLikeSemantics(t *testing.T) {
	checkQ(t, fixture, "SELECT s FROM nums WHERE s LIKE '%a' ORDER BY s",
		[][]string{{"alpha"}, {"beta"}, {"gamma"}})
	checkQ(t, fixture, "SELECT s FROM nums WHERE s LIKE 'a%'", [][]string{{"alpha"}})
	checkQ(t, fixture, "SELECT s FROM nums WHERE s LIKE '%mm%'", [][]string{{"gamma"}})
	checkQ(t, fixture, "SELECT s FROM nums WHERE s LIKE '_eta'", [][]string{{"beta"}})
	checkQ(t, fixture, "SELECT s FROM nums WHERE s NOT LIKE '%a%' ", nil)
}

func TestCaseExpressions(t *testing.T) {
	checkQ(t, fixture,
		"SELECT CASE WHEN i = 1 THEN 'one' WHEN i = 2 THEN 'two' ELSE 'many' END FROM nums WHERE i IS NOT NULL ORDER BY i",
		[][]string{{"one"}, {"two"}, {"many"}})
	// Operand form + missing ELSE yields NULL.
	checkQ(t, fixture,
		"SELECT CASE i WHEN 1 THEN 'one' END FROM nums WHERE i IS NOT NULL ORDER BY i",
		[][]string{{"one"}, {"NULL"}, {"NULL"}})
}

func TestCasts(t *testing.T) {
	checkQ(t, nil, "SELECT CAST('42' AS BIGINT), CAST(1.9 AS INTEGER), CAST(0 AS BOOLEAN), CAST(123 AS VARCHAR)",
		[][]string{{"42", "1", "false", "123"}})
	db := openMem(t)
	if _, err := db.Query("SELECT CAST('duck' AS BIGINT)"); err == nil {
		t.Fatal("bad cast accepted")
	}
	if _, err := db.Query("SELECT CAST(99999999999 AS INTEGER)"); err == nil {
		t.Fatal("overflowing cast accepted")
	}
}

func TestScalarFunctions(t *testing.T) {
	checkQ(t, nil, "SELECT abs(-5), length('hello'), lower('ABC'), upper('abc'), round(2.6)",
		[][]string{{"5", "5", "abc", "ABC", "3"}})
	checkQ(t, nil, "SELECT coalesce(NULL, NULL, 7), coalesce(1, 2), greatest(3, 9, 5), least(3, 9, 5)",
		[][]string{{"7", "1", "9", "3"}})
	checkQ(t, nil, "SELECT substr('embedded', 4), substr('embedded', 1, 5), trim('  x  ')",
		[][]string{{"edded", "embed", "x"}})
	checkQ(t, nil, "SELECT 'a' || 'b' || CAST(7 AS VARCHAR)", [][]string{{"ab7"}})
}

func TestAggregatesOverEmptyAndNulls(t *testing.T) {
	checkQ(t, []string{"CREATE TABLE e (v BIGINT)"},
		"SELECT count(*), count(v), sum(v), avg(v), min(v), max(v) FROM e",
		[][]string{{"0", "0", "NULL", "NULL", "NULL", "NULL"}})
	checkQ(t, fixture, "SELECT count(DISTINCT f) FROM nums", [][]string{{"2"}})
	checkQ(t, fixture, "SELECT sum(DISTINCT i % 2) FROM nums", [][]string{{"1"}})
}

func TestGroupByOrdinalAndAlias(t *testing.T) {
	checkQ(t, fixture, "SELECT f AS flag, count(*) FROM nums WHERE f IS NOT NULL GROUP BY flag ORDER BY 1",
		[][]string{{"false", "1"}, {"true", "2"}})
	checkQ(t, fixture, "SELECT i % 2, count(*) FROM nums WHERE i IS NOT NULL GROUP BY 1 ORDER BY 1",
		[][]string{{"0", "1"}, {"1", "2"}})
}

func TestHaving(t *testing.T) {
	checkQ(t, fixture, "SELECT f, count(*) FROM nums GROUP BY f HAVING count(*) > 1 ORDER BY 1 NULLS FIRST",
		[][]string{{"true", "2"}})
}

func TestOrderByNullsAndDirections(t *testing.T) {
	checkQ(t, fixture, "SELECT i FROM nums ORDER BY i ASC",
		[][]string{{"1"}, {"2"}, {"3"}, {"NULL"}})
	checkQ(t, fixture, "SELECT i FROM nums ORDER BY i DESC",
		[][]string{{"NULL"}, {"3"}, {"2"}, {"1"}})
	checkQ(t, fixture, "SELECT i FROM nums ORDER BY i ASC NULLS FIRST",
		[][]string{{"NULL"}, {"1"}, {"2"}, {"3"}})
	checkQ(t, fixture, "SELECT i FROM nums ORDER BY i DESC NULLS LAST",
		[][]string{{"3"}, {"2"}, {"1"}, {"NULL"}})
}

func TestLimitOffset(t *testing.T) {
	checkQ(t, fixture, "SELECT i FROM nums WHERE i IS NOT NULL ORDER BY i LIMIT 2",
		[][]string{{"1"}, {"2"}})
	checkQ(t, fixture, "SELECT i FROM nums WHERE i IS NOT NULL ORDER BY i LIMIT 2 OFFSET 2",
		[][]string{{"3"}})
	checkQ(t, fixture, "SELECT i FROM nums ORDER BY i LIMIT 0", nil)
}

func TestJoinVarieties(t *testing.T) {
	setup := []string{
		"CREATE TABLE a (x BIGINT)",
		"CREATE TABLE b (y BIGINT)",
		"INSERT INTO a VALUES (1), (2), (3)",
		"INSERT INTO b VALUES (2), (3), (4)",
	}
	checkQ(t, setup, "SELECT x, y FROM a JOIN b ON x = y ORDER BY x",
		[][]string{{"2", "2"}, {"3", "3"}})
	checkQ(t, setup, "SELECT count(*) FROM a CROSS JOIN b", [][]string{{"9"}})
	checkQ(t, setup, "SELECT count(*) FROM a, b WHERE x < y", [][]string{{"6"}})
	// Non-equi join condition: the keyless join.
	checkQ(t, setup, "SELECT x, y FROM a JOIN b ON x > y ORDER BY x, y",
		[][]string{{"3", "2"}})
	// Join keys with expressions.
	checkQ(t, setup, "SELECT x, y FROM a JOIN b ON x + 1 = y ORDER BY x",
		[][]string{{"1", "2"}, {"2", "3"}, {"3", "4"}})
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	setup := []string{
		"CREATE TABLE a (x BIGINT)",
		"CREATE TABLE b (y BIGINT)",
		"INSERT INTO a VALUES (1), (NULL)",
		"INSERT INTO b VALUES (1), (NULL)",
	}
	checkQ(t, setup, "SELECT count(*) FROM a JOIN b ON x = y", [][]string{{"1"}})
	checkQ(t, setup, "SELECT x, y FROM a LEFT JOIN b ON x = y ORDER BY x NULLS FIRST",
		[][]string{{"NULL", "NULL"}, {"1", "1"}})
}

func TestThreeWayJoin(t *testing.T) {
	setup := []string{
		"CREATE TABLE u (uid BIGINT, uname VARCHAR)",
		"CREATE TABLE o (oid BIGINT, ouid BIGINT)",
		"CREATE TABLE p (poid BIGINT, amount BIGINT)",
		"INSERT INTO u VALUES (1,'ann'), (2,'bob')",
		"INSERT INTO o VALUES (10,1), (11,1), (12,2)",
		"INSERT INTO p VALUES (10,100), (11,150), (12,50)",
	}
	checkQ(t, setup, `SELECT uname, sum(amount) FROM u
		JOIN o ON uid = ouid JOIN p ON oid = poid
		GROUP BY uname ORDER BY uname`,
		[][]string{{"ann", "250"}, {"bob", "50"}})
}

func TestUnionAllTypesAligned(t *testing.T) {
	checkQ(t, nil, "SELECT 1 UNION ALL SELECT 2.5 UNION ALL SELECT 3 ORDER BY 1",
		[][]string{{"1"}, {"2.5"}, {"3"}})
}

func TestInsertColumnSubset(t *testing.T) {
	checkQ(t, []string{
		"CREATE TABLE t (a BIGINT, b VARCHAR, c DOUBLE)",
		"INSERT INTO t (c, a) VALUES (2.5, 7)",
	}, "SELECT a, b, c FROM t", [][]string{{"7", "NULL", "2.5"}})
}

func TestInsertSelect(t *testing.T) {
	checkQ(t, []string{
		"CREATE TABLE src (v BIGINT)",
		"INSERT INTO src VALUES (1), (2), (3)",
		"CREATE TABLE dst (v BIGINT, doubled BIGINT)",
		"INSERT INTO dst SELECT v, v * 2 FROM src WHERE v > 1",
	}, "SELECT v, doubled FROM dst ORDER BY v",
		[][]string{{"2", "4"}, {"3", "6"}})
}

func TestNotNullEnforcement(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (v BIGINT NOT NULL)")
	if _, err := db.Exec("INSERT INTO t VALUES (NULL)"); err == nil {
		t.Fatal("NULL accepted into NOT NULL column")
	}
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if _, err := db.Exec("UPDATE t SET v = NULL"); err == nil {
		t.Fatal("UPDATE to NULL accepted on NOT NULL column")
	}
}

func TestUpdateMultiColumnAndSelfReference(t *testing.T) {
	checkQ(t, []string{
		"CREATE TABLE t (a BIGINT, b BIGINT)",
		"INSERT INTO t VALUES (1, 10), (2, 20)",
		"UPDATE t SET a = b, b = a", // reads old values (Halloween-safe)
	}, "SELECT a, b FROM t ORDER BY b",
		[][]string{{"10", "1"}, {"20", "2"}})
}

func TestDeleteAll(t *testing.T) {
	checkQ(t, []string{
		"CREATE TABLE t (v BIGINT)",
		"INSERT INTO t VALUES (1), (2)",
		"DELETE FROM t",
	}, "SELECT count(*) FROM t", [][]string{{"0"}})
}

func TestCreateTableAsSelect(t *testing.T) {
	checkQ(t, []string{
		"CREATE TABLE t (v BIGINT)",
		"INSERT INTO t VALUES (1), (2), (3)",
		"CREATE TABLE squares AS SELECT v, v * v AS sq FROM t",
	}, "SELECT sq FROM squares ORDER BY v",
		[][]string{{"1"}, {"4"}, {"9"}})
}

func TestDropAndIfExists(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (v BIGINT)")
	mustExec(t, db, "DROP TABLE t")
	if _, err := db.Query("SELECT * FROM t"); err == nil {
		t.Fatal("dropped table still queryable")
	}
	mustExec(t, db, "DROP TABLE IF EXISTS t")
	if _, err := db.Exec("DROP TABLE t"); err == nil {
		t.Fatal("double drop accepted")
	}
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS x (v BIGINT)")
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS x (v BIGINT)")
}

func TestExplainOutput(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE t (a BIGINT, b BIGINT, c BIGINT)")
	rows := queryAll(t, db, "EXPLAIN SELECT a FROM t WHERE b > 5")
	plan := ""
	for _, r := range rows {
		plan += r[0] + "\n"
	}
	// Filter pushed into the scan, untouched column c pruned away.
	if !strings.Contains(plan, "SCAN t(a, b)") || !strings.Contains(plan, "FILTER") {
		t.Fatalf("unexpected plan:\n%s", plan)
	}
	if strings.Contains(plan, "c") {
		t.Fatalf("column c not pruned:\n%s", plan)
	}
}

func TestPragmas(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "PRAGMA memory_limit='64MB'")
	got := queryAll(t, db, "PRAGMA memory_limit")
	if got[0][0] != fmt.Sprint(64<<20) {
		t.Fatalf("memory_limit = %v", got)
	}
	if _, err := db.Exec("PRAGMA nonsense=1"); err == nil {
		t.Fatal("unknown pragma accepted")
	}
}

func TestScanColumnPruningLoadsOnlyNeeded(t *testing.T) {
	// Regression guard for the paper's partial-column workloads: a
	// query touching one column of a wide table must not error and must
	// produce correct results after reopen (lazy loading path).
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE wide (a BIGINT, b BIGINT, c BIGINT, d BIGINT, e BIGINT)")
	mustExec(t, db, "INSERT INTO wide VALUES (1,2,3,4,5), (10,20,30,40,50)")
	checkRows := queryAll(t, db, "SELECT c FROM wide ORDER BY c")
	if fmt.Sprint(checkRows) != fmt.Sprint([][]string{{"3"}, {"30"}}) {
		t.Fatalf("got %v", checkRows)
	}
}

func TestBigSortSpills(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "PRAGMA memory_limit='4MB'")
	mustExec(t, db, "CREATE TABLE t (v BIGINT)")
	app, _ := db.Appender("t")
	const n = 300_000
	for i := 0; i < n; i++ {
		app.AppendRow(int64((i * 7919) % n))
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT v FROM t ORDER BY v")
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	var count int64
	for {
		c := rows.NextChunk()
		if c == nil {
			break
		}
		for _, v := range c.Cols[0].I64[:c.Len()] {
			if v < prev {
				t.Fatalf("out of order: %d after %d", v, prev)
			}
			prev = v
			count++
		}
	}
	if count != n {
		t.Fatalf("sorted %d rows, want %d", count, n)
	}
}
