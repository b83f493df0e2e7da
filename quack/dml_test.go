package quack_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/quack"
)

// TestInsertSelectSelfReferencing: INSERT INTO t SELECT ... FROM t used
// to never terminate — the scan kept discovering the segments its own
// insert appended (rows of the same transaction are snapshot-visible).
// With the segment list and row counts snapshotted at scan open, the
// statement must insert exactly the pre-existing rows, once.
func TestInsertSelectSelfReferencing(t *testing.T) {
	db, err := quack.Open(":memory:")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (id BIGINT, tag VARCHAR)")
	app, err := db.Appender("t")
	if err != nil {
		t.Fatal(err)
	}
	const pre = 3_500 // spans several segments, last one partially full
	for i := 0; i < pre; i++ {
		if err := app.AppendRow(int64(i), fmt.Sprintf("tag-%d", i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}

	type res struct {
		n   int64
		err error
	}
	done := make(chan res, 1)
	go func() {
		n, err := db.Exec("INSERT INTO t SELECT id + 1000000, tag FROM t")
		done <- res{n, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("self-referencing insert: %v", r.err)
		}
		if r.n != pre {
			t.Fatalf("inserted %d rows, want exactly the %d pre-existing", r.n, pre)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("self-referencing INSERT ... SELECT did not terminate")
	}

	got := queryAll(t, db, "SELECT count(*), min(id), max(id) FROM t")
	want := fmt.Sprintf("[%d 0 %d]", 2*pre, 1000000+pre-1)
	if fmt.Sprint(got[0]) != want {
		t.Fatalf("post-insert state %v, want %s", got[0], want)
	}
	// The doubled table must again self-insert exactly once (regression
	// for the snapshot covering partially-filled trailing segments).
	if n := mustExec(t, db, "INSERT INTO t SELECT id, tag FROM t WHERE id < 1000000"); n != pre {
		t.Fatalf("filtered self-insert affected %d rows, want %d", n, pre)
	}
}

// TestInsertSelectSelfReferencingInTxn: the same statement inside an
// explicit transaction, whose snapshot also covers the transaction's own
// earlier (uncommitted) inserts.
func TestInsertSelectSelfReferencingInTxn(t *testing.T) {
	db, err := quack.Open(":memory:")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (v BIGINT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (4)"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tx.Exec("INSERT INTO t SELECT v + 10 FROM t")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("self-referencing insert in txn did not terminate")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := queryAll(t, db, "SELECT v FROM t ORDER BY v")
	want := "[[1] [2] [3] [4] [11] [12] [13] [14]]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v, want %s", got, want)
	}
}

// TestDMLDifferentialThreads: DML statements now build their input
// scans on the parallel pipeline; the resulting table state — including
// physical row order, which INSERT inherits from the ordered merge —
// must be identical to the single-threaded engine's.
func TestDMLDifferentialThreads(t *testing.T) {
	build := func(threads int) *quack.DB {
		db, err := quack.Open(":memory:", quack.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		mustExec(t, db, "CREATE TABLE src (id BIGINT, grp VARCHAR, val DOUBLE)")
		app, err := db.Appender("src")
		if err != nil {
			t.Fatal(err)
		}
		groups := []string{"a", "b", "c", "d"}
		for i := 0; i < 20_000; i++ {
			var g any = groups[i%len(groups)]
			if i%53 == 0 {
				g = nil
			}
			if err := app.AppendRow(int64(i), g, float64(i%701)/3); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE dst (id BIGINT, val DOUBLE)")
		// Parallel scan feeding INSERT ... SELECT.
		mustExec(t, db, "INSERT INTO dst SELECT id, val FROM src WHERE val > 100 AND grp IS NOT NULL")
		// Self-referencing insert over the parallel scan snapshot.
		mustExec(t, db, "INSERT INTO dst SELECT id + 1000000, val FROM dst WHERE id % 7 = 0")
		// Bulk UPDATE and DELETE with parallel filter scans.
		mustExec(t, db, "UPDATE dst SET val = val * 2 WHERE id % 3 = 0")
		mustExec(t, db, "DELETE FROM dst WHERE val > 400")
		return db
	}
	seq := build(1)
	for _, threads := range []int{4, 8} {
		par := build(threads)
		for _, q := range []string{
			"SELECT * FROM dst", // physical row order must match
			"SELECT count(*), sum(val), min(id), max(id) FROM dst",
		} {
			want := queryAll(t, seq, q)
			got := queryAll(t, par, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("threads=%d %q diverges (got %d rows, want %d)", threads, q, len(got), len(want))
			}
		}
	}
}

// TestBigInsertUnderOneSecond is the end-to-end regression for the bulk
// VALUES path: parsing, binding and executing a 10k-row INSERT must
// finish in well under a second.
func TestBigInsertUnderOneSecond(t *testing.T) {
	db, err := quack.Open(":memory:")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE big (a BIGINT, b VARCHAR, c DOUBLE)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	const rows = 10_000
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, 'name-%d', %d.25)", i, i, i)
	}
	start := time.Now()
	n := mustExec(t, db, sb.String())
	elapsed := time.Since(start)
	if n != rows {
		t.Fatalf("inserted %d rows, want %d", n, rows)
	}
	if elapsed > time.Second {
		t.Fatalf("10k-row INSERT took %v, want < 1s", elapsed)
	}
	t.Logf("10k-row INSERT executed in %v", elapsed)
}

// TestFailedStatementInTransactionLeavesNothing: a statement that fails
// part-way inside BEGIN — a COPY whose CSV turns ragged after its first
// chunk, an INSERT … SELECT that errors in its second chunk — is undone
// alone: COMMIT stores the good statements' rows and nothing of the
// failed ones, in memory, in the WAL a crash replays and in the
// checkpoint a clean close writes.
func TestFailedStatementInTransactionLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stmt.qdb")
	db, err := quack.Open(path, quack.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (v BIGINT)")
	mustExec(t, db, "CREATE TABLE src (v BIGINT)")
	app, err := db.Appender("src")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := app.AppendRow(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}

	var csv strings.Builder
	for i := 1; i <= 1500; i++ {
		if i == 1401 {
			csv.WriteString("1401,1401\n")
			continue
		}
		fmt.Fprintf(&csv, "%d\n", i)
	}
	csvPath := filepath.Join(dir, "ragged.csv")
	if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(fmt.Sprintf("COPY t FROM '%s'", csvPath)); err == nil {
		t.Fatal("COPY of a ragged CSV succeeded")
	}
	// v = 1500 lies in src's second segment: the first chunk is appended
	// before the modulo by zero fails.
	if _, err := tx.Exec("INSERT INTO t SELECT v % (v - 1500) FROM src"); err == nil {
		t.Fatal("INSERT … SELECT with a modulo by zero succeeded")
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (4), (5)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	const want = "[[5 15]]"
	const q = "SELECT count(*), sum(v) FROM t"
	if got := fmt.Sprint(queryAll(t, db, q)); got != want {
		t.Fatalf("after COMMIT: %s, want %s", got, want)
	}

	// A crash now leaves the database file and the WAL as they are; a
	// copy of both opened elsewhere replays the WAL.
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

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = quack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := fmt.Sprint(queryAll(t, db, q)); got != want {
		t.Fatalf("after close and reopen: %s, want %s", got, want)
	}
}
