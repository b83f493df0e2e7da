package quack_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/quack"
)

// Selective-predicate palette for the zone-map fuzz: clustered-range
// predicates over the append-ordered id (the case zone maps excel at),
// unclustered predicates over qty/price (every segment survives —
// skipping must be a no-op), string equality (dictionary membership),
// NULL tests, constant-on-the-left, OR (not decomposable, never
// pushed), and predicates under joins and aggregates.
var zoneMapQueries = []string{
	"SELECT id, grp, qty FROM facts WHERE id >= 100 AND id < 130",
	"SELECT count(*), sum(qty) FROM facts WHERE id >= 29000",
	"SELECT id FROM facts WHERE id = 12345",
	"SELECT id FROM facts WHERE 25000 <= id",
	"SELECT count(*) FROM facts WHERE id < 0",
	"SELECT id, price FROM facts WHERE qty = 499 AND id < 5000",
	"SELECT count(*) FROM facts WHERE price > 249.0",
	"SELECT count(*) FROM facts WHERE grp = 'emea' AND id >= 28000",
	"SELECT count(*) FROM facts WHERE grp = 'nowhere'",
	"SELECT count(*) FROM facts WHERE grp IS NULL AND id < 200",
	"SELECT count(*) FROM facts WHERE qty IS NOT NULL AND id >= 29500",
	"SELECT id FROM facts WHERE id >= 100 AND id < 130 OR id = 29999",
	"SELECT f.id, d.label FROM facts f JOIN dims d ON f.id = d.key WHERE f.id < 40",
	"SELECT grp, count(*) FROM facts WHERE id >= 15000 AND id < 16000 GROUP BY grp ORDER BY grp",
	"SELECT id FROM facts WHERE id <> 0 AND id < 30",
}

// zoneMapCompare runs every palette query at the given thread counts
// with zone maps on and off and fails on any divergence. Results must be
// identical row for row, including order: skipping only changes which
// segments are materialized, never what the scan returns.
func zoneMapCompare(t *testing.T, db *quack.DB, threadCounts []int) {
	t.Helper()
	for _, threads := range threadCounts {
		mustExec(t, db, fmt.Sprintf("PRAGMA threads=%d", threads))
		for _, q := range zoneMapQueries {
			db.Internal().SetZoneMaps(false)
			want := queryAll(t, db, q)
			db.Internal().SetZoneMaps(true)
			got := queryAll(t, db, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("threads=%d query %q diverges with zone maps on:\n got (%d rows): %.300v\nwant (%d rows): %.300v",
					threads, q, len(got), got, len(want), want)
			}
		}
	}
}

// TestZoneMapDifferential fuzzes zone-map segment skipping against the
// no-skipping engine on the in-memory fixture (stats built at append
// time): selective and non-selective predicates at threads 1/2/8 must be
// byte-identical, and the skip counter must actually move.
func TestZoneMapDifferential(t *testing.T) {
	db := differentialDB(t, 1)
	skippedBefore := db.Metrics()["scan_segments_skipped_total"]
	zoneMapCompare(t, db, []int{1, 2, 8})
	if db.Metrics()["scan_segments_skipped_total"] == skippedBefore {
		t.Fatal("the selective palette skipped no segments; zone maps are not wired into the scan")
	}

	// With skipping disabled the counter must not move.
	db.Internal().SetZoneMaps(false)
	before := db.Metrics()["scan_segments_skipped_total"]
	queryAll(t, db, zoneMapQueries[0])
	if db.Metrics()["scan_segments_skipped_total"] != before {
		t.Fatal("zone maps off still skipped segments")
	}
	db.Internal().SetZoneMaps(true)
}

// TestZoneMapDifferentialReopen checkpoints the fixture into a database
// file, reopens it cold and repeats the differential: the zone maps now
// come from the catalog (SetSegmentStats at open), and the compressed
// per-segment payloads are refuted without being decoded. EXPLAIN right
// after the cold open must already report skips — before any column
// chain has been read — proving the stats were loaded, not recomputed.
func TestZoneMapDifferentialReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zones.qdb")
	db, err := quack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE facts (id BIGINT, grp VARCHAR, qty BIGINT, price DOUBLE, flag BOOLEAN)")
	app, err := db.Appender("facts")
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"north", "south", "east", "west", "emea", "apac"}
	const rows = 30_000
	for i := 0; i < rows; i++ {
		var grp any = groups[(i*7)%len(groups)]
		var qty any = int64((i * 13) % 500)
		var price any = float64((i*31)%1000) / 4
		if i%97 == 0 {
			grp = nil
		}
		if i%89 == 0 {
			qty = nil
		}
		if i%83 == 0 {
			price = nil
		}
		if err := app.AppendRow(int64(i), grp, qty, price, i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE dims (key BIGINT, label VARCHAR)")
	mustExec(t, db, "INSERT INTO dims SELECT id, grp FROM facts WHERE id < 64")
	if err := db.Close(); err != nil { // checkpoint persists stats into the catalog
		t.Fatal(err)
	}

	db, err = quack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Cold: EXPLAIN consults only catalog-loaded stats; no chain reads.
	readsBefore := blocksRead(t, db)
	skipped, total := explainSkips(t, db, "EXPLAIN SELECT id FROM facts WHERE id >= 29000")
	if got := blocksRead(t, db); got != readsBefore {
		t.Fatalf("EXPLAIN read %d blocks; zone-map stats are being recomputed instead of loaded from the catalog", got-readsBefore)
	}
	if total == 0 || skipped*10 < total*9 {
		t.Fatalf("cold EXPLAIN reports %d/%d segments skipped, want >90%%", skipped, total)
	}

	skippedBefore := db.Metrics()["scan_segments_skipped_total"]
	zoneMapCompare(t, db, []int{1, 2, 8})
	if db.Metrics()["scan_segments_skipped_total"] == skippedBefore {
		t.Fatal("post-reopen palette skipped no segments")
	}
}

// TestZoneMapExplainMatchesSequential pins the EXPLAIN surface: the
// pushed-predicate text and the segments-skipped fraction for a
// clustered-range predicate over 1M rows, where zone maps must refute
// more than 90% of the segments.
func TestZoneMapExplainMatchesSequential(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE seq (id BIGINT, v BIGINT)")
	app, err := db.Appender("seq")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 1_000_000
	for i := 0; i < rows; i++ {
		if err := app.AppendRow(int64(i), int64(i%977)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}

	lines := queryAll(t, db, "EXPLAIN SELECT v FROM seq WHERE id >= 500000 AND id < 510000")
	var note string
	for _, l := range lines {
		if strings.HasPrefix(l[0], "NOTE: SCAN seq zone filters:") {
			note = l[0]
		}
	}
	if note == "" {
		t.Fatalf("EXPLAIN has no zone-filter note:\n%v", lines)
	}
	if !strings.Contains(note, "zone filters: id>=500000 AND id<510000;") {
		t.Fatalf("pushed-predicate text changed: %q", note)
	}
	skipped, total := parseSkipNote(t, note)
	if want := (rows + 1023) / 1024; total != want {
		t.Fatalf("note reports %d segments, table has %d", total, want)
	}
	if skipped*10 < total*9 {
		t.Fatalf("clustered 1%% range skipped only %d/%d segments, want >90%%", skipped, total)
	}

	// The ~1% range must also come back identical with skipping off —
	// and the sequential (threads=1) engine is the baseline.
	q := "SELECT count(*), sum(v) FROM seq WHERE id >= 500000 AND id < 510000"
	mustExec(t, db, "PRAGMA threads=1")
	db.Internal().SetZoneMaps(false)
	want := queryAll(t, db, q)
	db.Internal().SetZoneMaps(true)
	for _, threads := range []int{1, 2, 8} {
		mustExec(t, db, fmt.Sprintf("PRAGMA threads=%d", threads))
		if got := queryAll(t, db, q); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("threads=%d: skipped scan diverges: got %v want %v", threads, got, want)
		}
	}

	// With zone maps off the note disappears.
	db.Internal().SetZoneMaps(false)
	for _, l := range queryAll(t, db, "EXPLAIN SELECT v FROM seq WHERE id = 7") {
		if strings.Contains(l[0], "zone filters") {
			t.Fatalf("zone-filter note still present with zone maps off: %q", l[0])
		}
	}
	db.Internal().SetZoneMaps(true)
}

var skipNoteRE = regexp.MustCompile(`segments skipped: (\d+)/(\d+)$`)

func parseSkipNote(t *testing.T, note string) (skipped, total int) {
	t.Helper()
	m := skipNoteRE.FindStringSubmatch(note)
	if m == nil {
		t.Fatalf("note %q has no segments-skipped suffix", note)
	}
	skipped, _ = strconv.Atoi(m[1])
	total, _ = strconv.Atoi(m[2])
	return skipped, total
}

func explainSkips(t *testing.T, db *quack.DB, explain string) (skipped, total int) {
	t.Helper()
	for _, l := range queryAll(t, db, explain) {
		if strings.Contains(l[0], "segments skipped:") {
			return parseSkipNote(t, l[0])
		}
	}
	t.Fatalf("no segments-skipped note in %q output", explain)
	return 0, 0
}

var blocksReadRE = regexp.MustCompile(`blocks read (\d+)`)

func blocksRead(t *testing.T, db *quack.DB) int64 {
	t.Helper()
	rows := queryAll(t, db, "PRAGMA database_size")
	m := blocksReadRE.FindStringSubmatch(rows[0][0])
	if m == nil {
		t.Fatalf("PRAGMA database_size output %q", rows[0][0])
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	return n
}
