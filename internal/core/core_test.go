package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/oracle"
	"repro/internal/storage"
	"repro/internal/types"
)

func openCore(t *testing.T, path string) *Database {
	t.Helper()
	db, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func execSQL(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	res, err := db.NewSession().ExecuteOne(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func queryStrings(t *testing.T, db *Database, sql string) [][]string {
	t.Helper()
	res, err := db.NewSession().ExecuteOne(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	var out [][]string
	for _, chunk := range res.Chunks {
		for r := 0; r < chunk.Len(); r++ {
			row := make([]string, chunk.NumCols())
			for c := 0; c < chunk.NumCols(); c++ {
				row[c] = chunk.Cols[c].Get(r).String()
			}
			out = append(out, row)
		}
	}
	return out
}

// copyCrashImage snapshots the database and WAL files as a crash would
// leave them (the original handle stays open and is never checkpointed).
func copyCrashImage(t *testing.T, path string) string {
	t.Helper()
	dst := path + ".crash"
	for _, suffix := range []string{"", ".wal"} {
		src, err := os.Open(path + suffix)
		if err != nil {
			if suffix == ".wal" && errors.Is(err, os.ErrNotExist) {
				continue
			}
			t.Fatal(err)
		}
		out, err := os.Create(dst + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		out.Close()
	}
	return dst
}

func TestCrashRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.qdb")
	db := openCore(t, path)
	execSQL(t, db, "CREATE TABLE t (id BIGINT, s VARCHAR)")
	execSQL(t, db, "INSERT INTO t VALUES (1, 'one'), (2, 'two')")
	execSQL(t, db, "UPDATE t SET s = 'TWO' WHERE id = 2")
	execSQL(t, db, "DELETE FROM t WHERE id = 1")
	execSQL(t, db, "CREATE VIEW v AS SELECT s FROM t")

	// Crash: no checkpoint ran, everything lives only in the WAL.
	crash := copyCrashImage(t, path)
	db2 := openCore(t, crash)
	defer db2.Close()
	got := queryStrings(t, db2, "SELECT id, s FROM t")
	if fmt.Sprint(got) != fmt.Sprint([][]string{{"2", "TWO"}}) {
		t.Fatalf("recovered: %v", got)
	}
	if got := queryStrings(t, db2, "SELECT s FROM v"); got[0][0] != "TWO" {
		t.Fatalf("view lost: %v", got)
	}
	db.Close()
}

func TestCrashAfterCheckpointPlusWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.qdb")
	db := openCore(t, path)
	execSQL(t, db, "CREATE TABLE t (v BIGINT)")
	execSQL(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint changes live in the WAL only.
	execSQL(t, db, "INSERT INTO t VALUES (4)")
	execSQL(t, db, "UPDATE t SET v = 30 WHERE v = 3")

	crash := copyCrashImage(t, path)
	db2 := openCore(t, crash)
	defer db2.Close()
	got := queryStrings(t, db2, "SELECT sum(v), count(*) FROM t")
	if fmt.Sprint(got) != fmt.Sprint([][]string{{"37", "4"}}) {
		t.Fatalf("recovered: %v", got)
	}
	db.Close()
}

func TestCheckpointRewritesOnlyDirtyColumns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.qdb")
	db := openCore(t, path)
	defer db.Close()
	execSQL(t, db, "CREATE TABLE wide (a BIGINT, b BIGINT, c BIGINT, d BIGINT)")
	var insert string
	for i := 0; i < 2000; i++ {
		if i > 0 {
			insert += ","
		}
		insert += fmt.Sprintf("(%d,%d,%d,%d)", i, i, i, i)
	}
	execSQL(t, db, "INSERT INTO wide VALUES "+insert)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	entry, err := db.Catalog().Table("wide")
	if err != nil {
		t.Fatal(err)
	}
	chainsBefore := append([]storage.BlockID(nil), entry.ColChains...)

	// Update only column b; the checkpoint must keep a, c, d chains.
	execSQL(t, db, "UPDATE wide SET b = b + 1")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, head := range entry.ColChains {
		moved := head != chainsBefore[i]
		if i == 1 && !moved {
			t.Error("updated column b was not rewritten")
		}
		if i != 1 && moved {
			t.Errorf("unchanged column %d was rewritten", i)
		}
	}
}

func TestCheckpointBusyWithActiveTxn(t *testing.T) {
	db := openCore(t, filepath.Join(t.TempDir(), "db.qdb"))
	defer db.Close()
	execSQL(t, db, "CREATE TABLE t (v BIGINT)")
	sess := db.NewSession()
	if _, err := sess.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrBusy) {
		t.Fatalf("checkpoint during txn: %v", err)
	}
	if _, err := sess.Execute("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteCompactionAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.qdb")
	db := openCore(t, path)
	execSQL(t, db, "CREATE TABLE t (v BIGINT)")
	execSQL(t, db, "INSERT INTO t VALUES (1), (2), (3), (4), (5)")
	execSQL(t, db, "DELETE FROM t WHERE v % 2 = 0")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction row ids must agree between memory and disk: a
	// delete after the checkpoint and a crash-recovery replay must hit
	// the same rows.
	execSQL(t, db, "DELETE FROM t WHERE v = 5")
	crash := copyCrashImage(t, path)
	db2 := openCore(t, crash)
	defer db2.Close()
	got := queryStrings(t, db2, "SELECT v FROM t ORDER BY v")
	if fmt.Sprint(got) != fmt.Sprint([][]string{{"1"}, {"3"}}) {
		t.Fatalf("after compaction+recovery: %v", got)
	}
	db.Close()
}

func TestCorruptionDetectedOnScan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.qdb")
	db := openCore(t, path)
	execSQL(t, db, "CREATE TABLE t (v BIGINT, s VARCHAR)")
	var insert string
	for i := 0; i < 5000; i++ {
		if i > 0 {
			insert += ","
		}
		insert += fmt.Sprintf("(%d,'row-%d')", i, i)
	}
	execSQL(t, db, "INSERT INTO t VALUES "+insert)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit near the start of every data block's payload, so
	// whichever blocks hold live chains are hit.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for blk := 2; int64(blk)*storage.BlockSize+200 < int64(len(raw)); blk++ {
		raw[int64(blk)*storage.BlockSize+150] ^= 0x40
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Path: path})
	if err != nil {
		// Corruption in the catalog chain is also a valid detection.
		return
	}
	defer db2.Close()
	_, qerr := db2.NewSession().ExecuteOne("SELECT sum(v), min(s) FROM t")
	if qerr == nil {
		t.Fatal("silent corruption: scan returned without error")
	}
	if !errors.Is(qerr, storage.ErrCorrupt) {
		t.Logf("corruption surfaced as: %v", qerr)
	}
}

func TestRowEngineMatchesVectorized(t *testing.T) {
	db := openCore(t, "")
	defer db.Close()
	execSQL(t, db, "CREATE TABLE t (g BIGINT, v BIGINT)")
	var insert string
	for i := 0; i < 3000; i++ {
		if i > 0 {
			insert += ","
		}
		insert += fmt.Sprintf("(%d,%d)", i%7, i)
	}
	execSQL(t, db, "INSERT INTO t VALUES "+insert)
	const q = "SELECT g, count(*), sum(v) FROM t WHERE v % 3 = 0 GROUP BY g ORDER BY g"
	vecRows := queryStrings(t, db, q)
	rowRows, err := oracle.Query(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(vecRows) != len(rowRows) {
		t.Fatalf("group counts differ: %d vs %d", len(vecRows), len(rowRows))
	}
	for i := range vecRows {
		for c := range vecRows[i] {
			if vecRows[i][c] != rowRows[i][c].String() {
				t.Fatalf("row %d col %d: %s vs %s", i, c, vecRows[i][c], rowRows[i][c].String())
			}
		}
	}
}

// TestRowEngineMatchesVectorizedNaN: both engines must apply the same
// total FP order to NaN-bearing predicates and min/max — the vectorized
// comparator delegates to types.CompareFloat exactly so the two agree.
func TestRowEngineMatchesVectorizedNaN(t *testing.T) {
	db := openCore(t, "")
	defer db.Close()
	execSQL(t, db, "CREATE TABLE t (d DOUBLE)")
	execSQL(t, db, "INSERT INTO t VALUES (5.0), (0.0), (-3.5), (2.0)")
	execSQL(t, db, "INSERT INTO t SELECT d/0.0 FROM t") // ±Inf and NaN
	for _, q := range []string{
		"SELECT count(*) FROM t WHERE d > 5",
		"SELECT count(*) FROM t WHERE d = d",
		"SELECT count(*) FROM t WHERE d <= 0.0/0.0",
		"SELECT min(d), max(d) FROM t",
	} {
		vecRows := queryStrings(t, db, q)
		rowRows, err := oracle.Query(db, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vecRows {
			for c := range vecRows[i] {
				if vecRows[i][c] != rowRows[i][c].String() {
					t.Fatalf("%s: row %d col %d: vectorized %s vs row engine %s",
						q, i, c, vecRows[i][c], rowRows[i][c].String())
				}
			}
		}
	}
}

func TestParamsThroughSession(t *testing.T) {
	db := openCore(t, "")
	defer db.Close()
	execSQL(t, db, "CREATE TABLE t (v BIGINT)")
	sess := db.NewSession()
	if _, err := sess.Execute("INSERT INTO t VALUES (?)", types.NewBigInt(5)); err != nil {
		t.Fatal(err)
	}
	res, err := sess.ExecuteOne("SELECT v + ? FROM t", types.NewBigInt(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks[0].Cols[0].I64[0] != 15 {
		t.Fatalf("param arithmetic: %v", res.Chunks[0].Row(0))
	}
}

func TestVacuumRunsPeriodically(t *testing.T) {
	db, err := Open(Config{Path: ""})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	execSQL(t, db, "CREATE TABLE t (v BIGINT)")
	execSQL(t, db, "INSERT INTO t VALUES (0)")
	// Commit past the vacuum interval twice.
	last := 2*vacuumEvery + 3
	for i := 1; i <= last; i++ {
		execSQL(t, db, fmt.Sprintf("UPDATE t SET v = %d", i))
	}
	// No assertion beyond "did not deadlock/corrupt": final value holds.
	got := queryStrings(t, db, "SELECT v FROM t")
	if got[0][0] != fmt.Sprint(last) {
		t.Fatalf("got %v", got)
	}
}

func TestWALSizeGrowsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	db := openCore(t, filepath.Join(dir, "db.qdb"))
	defer db.Close()
	execSQL(t, db, "CREATE TABLE t (v BIGINT)")
	execSQL(t, db, "INSERT INTO t VALUES (1)")
	if db.WALSize() == 0 {
		t.Fatal("WAL empty after commit")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.WALSize() != 0 {
		t.Fatal("WAL not truncated by checkpoint")
	}
}

// TestThreadsFromEnv: QUACK_THREADS pins the default parallelism when
// the config leaves it unset (the CI differential matrix relies on it);
// an explicit config value still wins.
func TestThreadsFromEnv(t *testing.T) {
	t.Setenv("QUACK_THREADS", "3")
	db, err := Open(Config{Path: ":memory:"})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Threads(); got != 3 {
		t.Fatalf("Threads() = %d, want 3 from QUACK_THREADS", got)
	}
	db.Close()

	db, err = Open(Config{Path: ":memory:", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Threads(); got != 2 {
		t.Fatalf("Threads() = %d, want explicit 2 over env", got)
	}
	// Resetting (PRAGMA threads=0) re-resolves the same pinned default.
	db.SetThreads(0)
	if got := db.Threads(); got != 3 {
		t.Fatalf("SetThreads(0) resolved %d, want 3 from QUACK_THREADS", got)
	}
}

// TestParseByteSize: memory_limit sizes parse to bytes; NaN, infinities,
// sizes past MaxInt64 bytes and positive sizes under one byte are
// rejected by the PRAGMA (leaving the limit as it was) and ignored from
// QUACK_MEMORY_LIMIT, instead of silently meaning "unlimited".
func TestParseByteSize(t *testing.T) {
	db, err := Open(Config{Path: ":memory:"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const kept = 4 << 20
	for _, tc := range []struct {
		in   string
		want int64
		bad  bool
	}{
		{in: "512MB", want: 512 << 20},
		{in: "1048576", want: 1 << 20},
		{in: "1.5kb", want: 1536},
		{in: " 2 GB ", want: 2 << 30},
		{in: "0", want: 0},
		{in: "-1", want: -1},
		{in: "NaN", bad: true},
		{in: "inf", bad: true},
		{in: "-Inf", bad: true},
		{in: "1e30TB", bad: true},
		{in: "9223372036854775808", bad: true},
		{in: "0.5", bad: true},
		{in: "12XB", bad: true},
	} {
		got, err := parseByteSize(tc.in)
		if tc.bad != (err != nil) || (!tc.bad && got != tc.want) {
			t.Errorf("parseByteSize(%q) = %d, %v; want %d, bad=%v", tc.in, got, err, tc.want, tc.bad)
		}

		db.pool.SetLimit(kept)
		_, err = db.NewSession().ExecuteOne(fmt.Sprintf("PRAGMA memory_limit='%s'", tc.in))
		switch lim := db.pool.Limit(); {
		case tc.bad && (err == nil || lim != kept):
			t.Errorf("PRAGMA memory_limit='%s': err %v, limit %d; want an error and the limit kept at %d", tc.in, err, lim, kept)
		case !tc.bad && (err != nil || lim != tc.want):
			t.Errorf("PRAGMA memory_limit='%s': err %v, limit %d; want %d", tc.in, err, lim, tc.want)
		}

		t.Setenv("QUACK_MEMORY_LIMIT", tc.in)
		want := tc.want
		if tc.bad || want < 0 {
			want = 0 // ignored with a warning
		}
		if got := defaultMemoryLimit(); got != want {
			t.Errorf("QUACK_MEMORY_LIMIT=%q resolved %d, want %d", tc.in, got, want)
		}
	}
}

// TestDroppedTableIsNotPinnedByLastProfile: a session keeps its last
// query's plan for PRAGMA last_profile, and that plan must not keep a
// table it scanned alive once the table is dropped.
func TestDroppedTableIsNotPinnedByLastProfile(t *testing.T) {
	db := openCore(t, ":memory:")
	defer db.Close()
	s := db.NewSession()
	qs := []string{"CREATE TABLE big (v BIGINT)", "INSERT INTO big VALUES (1), (2), (3), (4)"}
	for i := 0; i < 12; i++ {
		qs = append(qs, "INSERT INTO big SELECT v + 1 FROM big")
	}
	for _, q := range qs {
		if _, err := s.ExecuteOne(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	entry, err := db.cat.Table("big")
	if err != nil {
		t.Fatal(err)
	}
	data := weak.Make(entry.Data)
	entry = nil
	if _, err := s.ExecuteOne("SELECT sum(v) FROM big"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecuteOne("DROP TABLE big"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	if data.Value() != nil {
		t.Fatal("the dropped table's data is still reachable: the session's last profile pins it")
	}
	// The kept plan still names the table it scanned.
	res, err := s.ExecuteOne("PRAGMA last_profile")
	if err != nil {
		t.Fatal(err)
	}
	if doc := res.Chunks[0].Cols[0].Get(0).String(); !strings.Contains(doc, `"SCAN big`) {
		t.Fatalf("last_profile lost the scan's name: %s", doc)
	}
}
