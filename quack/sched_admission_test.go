package quack_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/quack"
)

// connQueryAll is queryAll over a dedicated session.
func connQueryAll(t *testing.T, c *quack.Conn, sql string) [][]string {
	t.Helper()
	rows, err := c.Query(sql)
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

// diffSessions resolves the concurrent-session count for the
// differential tests: the QUACK_DIFF_SESSIONS environment variable (the
// CI matrix axis), defaulting to 4.
func diffSessions() int {
	if env := os.Getenv("QUACK_DIFF_SESSIONS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
	}
	return 4
}

// TestConcurrentSessionsMatchesSequential is the serve-mode differential
// guarantee: N sessions running the full query palette concurrently on
// one shared database must each get results byte-identical to the
// single-threaded single-session baseline.
func TestConcurrentSessionsMatchesSequential(t *testing.T) {
	seq := differentialDB(t, 1)
	want := make([][][]string, len(differentialQueries))
	for i, q := range differentialQueries {
		want[i] = queryAll(t, seq, q)
	}

	db := differentialDB(t, 4)
	sessions := diffSessions()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn := db.Conn()
			// Stagger starting points so sessions collide on different
			// operators at any instant.
			for k := 0; k < len(differentialQueries); k++ {
				i := (k + s) % len(differentialQueries)
				rows, err := conn.Query(differentialQueries[i])
				if err != nil {
					t.Errorf("session %d query %q: %v", s, differentialQueries[i], err)
					return
				}
				var got [][]string
				for rows.Next() {
					row := make([]string, len(rows.Columns()))
					for c := range row {
						row[c] = rows.Value(c).String()
					}
					got = append(got, row)
				}
				if fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Errorf("session %d of %d: query %q diverges from sequential:\n got (%d rows): %.300v\nwant (%d rows): %.300v",
						s, sessions, differentialQueries[i], len(got), got, len(want[i]), want[i])
					return
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestGoroutineCountBounded pins the tentpole resource property: the
// engine multiplexes every query over one fixed pool, so 32 concurrent
// sessions add only their own client goroutines — not 32 × threads
// worker pools. The bound is the pool-inclusive baseline plus one
// goroutine per client plus runtime slack; the per-query-pool engine
// this replaced would blow through it several times over.
func TestGoroutineCountBounded(t *testing.T) {
	db, err := quack.Open(":memory:", quack.WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (id BIGINT, g BIGINT, v DOUBLE)")
	app, err := db.Appender("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		if err := app.AppendRow(int64(i), int64(i%97), float64(i%1000)/8); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT g, count(*), sum(v) FROM t GROUP BY g",
		"SELECT id, v FROM t WHERE g = 13 ORDER BY v DESC, id",
		"SELECT count(*) FROM t a JOIN t b ON a.id = b.id + 1 WHERE a.g < 5",
	}
	// Warm up so lazily created runtime goroutines are in the baseline.
	for _, q := range queries {
		queryAll(t, db, q)
	}
	base := runtime.NumGoroutine()

	const sessions = 32
	stopSampler := make(chan struct{})
	maxSeen := base
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stopSampler:
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > maxSeen {
				maxSeen = n
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn := db.Conn()
			for k := 0; k < 3; k++ {
				q := queries[(s+k)%len(queries)]
				if _, err := conn.Query(q); err != nil {
					t.Errorf("session %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(stopSampler)
	<-samplerDone

	// base already includes the 4 pool workers; each session adds its
	// own goroutine, the sampler adds one, and the runtime gets slack.
	allowed := base + sessions + 1 + 16
	if maxSeen > allowed {
		t.Fatalf("peak %d goroutines under %d sessions (baseline %d, allowed %d): queries are spawning per-query workers instead of sharing the pool",
			maxSeen, sessions, base, allowed)
	}
}

// TestPragmaKnobRacesUnderLoad toggles every db-level knob from two
// sessions while others run the differential palette; run under -race
// this is the regression test for torn knob reads, and in any mode the
// query results must stay byte-identical to the sequential baseline
// through every toggle.
func TestPragmaKnobRacesUnderLoad(t *testing.T) {
	seq := differentialDB(t, 1)
	queries := []string{
		differentialQueries[6],  // grouped aggregation
		differentialQueries[12], // high-cardinality spill-prone aggregation
		differentialQueries[13], // join
		differentialQueries[20], // sort
	}
	want := make([][][]string, len(queries))
	for i, q := range queries {
		want[i] = queryAll(t, seq, q)
	}

	db := differentialDB(t, 4)
	stop := make(chan struct{})
	var togglers sync.WaitGroup
	toggle := func(stmts []string) {
		defer togglers.Done()
		conn := db.Conn()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Zone maps have no PRAGMA; flip the knob where tests do.
			db.Internal().SetZoneMaps(i%2 == 1)
			if _, err := conn.Exec(stmts[i%len(stmts)]); err != nil {
				t.Errorf("toggler: %v", err)
				return
			}
		}
	}
	togglers.Add(2)
	go toggle([]string{
		"PRAGMA checksum_verification=0", "PRAGMA checksum_verification=1",
	})
	go toggle([]string{
		"PRAGMA threads=1", "PRAGMA threads=6", "PRAGMA threads=3",
		"PRAGMA memory_limit=-1", "PRAGMA memory_limit='64MB'",
	})

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			conn := db.Conn()
			for k := 0; k < 6; k++ {
				i := (r + k) % len(queries)
				got := connQueryAll(t, conn, queries[i])
				if fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Errorf("query %q diverged while knobs toggled:\n got: %.300v\nwant: %.300v", queries[i], got, want[i])
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	togglers.Wait()
	// The database must come back to a known state for later asserts.
	db.Internal().SetZoneMaps(true)
	mustExec(t, db, "PRAGMA memory_limit=-1")
}

// TestRebuildStatsRefutesDeletedRange is the zone-map maintenance
// satellite: runtime stats only ever widen, so a committed mass delete
// leaves the vacated range unskippable until PRAGMA rebuild_stats
// recomputes exact per-segment statistics — after which scans refute
// the deleted range, on warm in-memory segments and on cold compressed
// ones alike, without changing any result.
func TestRebuildStatsRefutesDeletedRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rebuild.qdb")
	db, err := quack.Open(path, quack.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	db.Internal().SetZoneMaps(true)
	mustExec(t, db, "CREATE TABLE t (id BIGINT, v BIGINT)")
	app, err := db.Appender("t")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 30_000
	for i := 0; i < rows; i++ {
		if err := app.AppendRow(int64(i), int64(i%991)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if n := mustExec(t, db, "DELETE FROM t WHERE id >= 20000"); n != 10_000 {
		t.Fatalf("deleted %d rows", n)
	}

	const probe = "EXPLAIN SELECT v FROM t WHERE id >= 25000"
	const q = "SELECT count(*), sum(v) FROM t WHERE id >= 25000"
	const liveQ = "SELECT count(*), sum(v) FROM t WHERE id >= 10000 AND id < 15000"
	wantLive := queryAll(t, db, liveQ)

	// Before the rebuild the stats still cover the deleted values.
	skippedBefore, total := explainSkips(t, db, probe)
	mustExec(t, db, "PRAGMA rebuild_stats='t'")
	skippedAfter, _ := explainSkips(t, db, probe)
	if skippedAfter != total {
		t.Fatalf("after rebuild %d/%d segments skipped for the fully-deleted range, want all (before: %d)",
			skippedAfter, total, skippedBefore)
	}
	if skippedAfter <= skippedBefore {
		t.Fatalf("rebuild did not tighten stats: %d skipped before, %d after", skippedBefore, skippedAfter)
	}
	if got := queryAll(t, db, q); got[0][0] != "0" {
		t.Fatalf("deleted range returned rows after rebuild: %v", got)
	}
	if got := queryAll(t, db, liveQ); fmt.Sprint(got) != fmt.Sprint(wantLive) {
		t.Fatalf("live range changed after rebuild: got %v want %v", got, wantLive)
	}

	// Unknown table errors; missing argument errors.
	if _, err := db.Exec("PRAGMA rebuild_stats='nope'"); err == nil {
		t.Fatal("rebuild_stats of unknown table accepted")
	}
	if _, err := db.Exec("PRAGMA rebuild_stats"); err == nil {
		t.Fatal("rebuild_stats without a table accepted")
	}

	// Cold path: reopen from the checkpoint so segments come back in
	// compressed form, delete, rebuild — the recompute must read the
	// encoded payloads transiently and still refute the vacated range.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = quack.Open(path, quack.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Internal().SetZoneMaps(true)
	if n := mustExec(t, db, "DELETE FROM t WHERE id >= 10000"); n != 10_000 {
		t.Fatalf("deleted %d rows after reopen", n)
	}
	mustExec(t, db, "PRAGMA rebuild_stats='t'")
	skippedCold, totalCold := explainSkips(t, db, "EXPLAIN SELECT v FROM t WHERE id >= 15000")
	if skippedCold != totalCold {
		t.Fatalf("cold rebuild skipped %d/%d segments for the deleted range, want all", skippedCold, totalCold)
	}
	if got := queryAll(t, db, "SELECT count(*) FROM t"); got[0][0] != "10000" {
		t.Fatalf("row count after cold delete = %v", got)
	}
}

// TestAggWorkerClampNote pins the budget-floor fix: a tight memory
// budget no longer hard-fails parallel aggregation at high thread
// counts — the worker count is clamped to what the budget admits,
// EXPLAIN says so, and the results match the unlimited engine exactly.
func TestAggWorkerClampNote(t *testing.T) {
	mk := func(opts ...quack.Option) *quack.DB {
		db, err := quack.Open(":memory:", opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		mustExec(t, db, "CREATE TABLE t (g BIGINT, v BIGINT)")
		app, err := db.Appender("t")
		if err != nil {
			t.Fatal(err)
		}
		// Dividing (not modding) the sequential key bounds the distinct
		// groups per morsel, like the exec spill fixtures: the clamp
		// formula still assumes the worst case and kicks in, while the
		// clamped execution has spillable state to stay inside the
		// budget. (All-distinct morsels can exceed even a one-worker
		// in-flight floor — a documented residual, not this test.)
		for i := 0; i < 30_000; i++ {
			if err := app.AppendRow(int64(i/8), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	const agg = "SELECT g, count(*), sum(v) FROM t GROUP BY g"

	free := mk(quack.WithThreads(8))
	mustExec(t, free, "PRAGMA memory_limit=-1")
	want := queryAll(t, free, agg)
	for _, row := range queryAll(t, free, "EXPLAIN "+agg) {
		if strings.Contains(row[0], "admits") {
			t.Fatalf("unlimited engine shows a clamp note: %q", row[0])
		}
	}

	tight := mk(quack.WithThreads(8), quack.WithMemoryLimit(1<<20))
	var note string
	for _, row := range queryAll(t, tight, "EXPLAIN "+agg) {
		if strings.Contains(row[0], "memory_limit admits") {
			note = row[0]
		}
	}
	if note == "" {
		t.Fatal("tight budget produced no worker-clamp NOTE in EXPLAIN")
	}
	if !strings.Contains(note, "of 8 aggregation workers") {
		t.Fatalf("clamp note text changed: %q", note)
	}
	got := queryAll(t, tight, agg)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("clamped aggregation diverges from unlimited engine:\n got (%d rows)\nwant (%d rows)", len(got), len(want))
	}
}
