package quack_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/quack"
)

// Predicate palette for the encoded-execution fuzz. The fixture is
// built by encodedExecFixture below: cold segments hold
// dictionary-encoded grp, FOR/RLE-packed id/qty and raw doubles, so
// these exercise every kernel — dictionary equality and inequality
// (including a value absent from some dictionaries), FOR-domain range
// rewrites whose constants land inside, below and above the packed
// domain, RLE run short-circuits over qty, double comparisons against
// INTEGER and DOUBLE columns, NULL tests, and shapes the kernels must
// decline (OR, joins) without changing results.
var encodedExecQueries = []string{
	"SELECT id, grp, qty FROM facts WHERE id >= 4000 AND id < 4100",
	"SELECT count(*), sum(qty) FROM facts WHERE id < 600",
	"SELECT count(*) FROM facts WHERE id >= 29900",
	"SELECT id FROM facts WHERE id = 12345",
	"SELECT count(*) FROM facts WHERE id <> 17",
	"SELECT count(*) FROM facts WHERE grp = 'emea'",
	"SELECT count(*) FROM facts WHERE grp <> 'north'",
	"SELECT count(*) FROM facts WHERE grp = 'nowhere'",
	"SELECT count(*) FROM facts WHERE grp > 'south'",
	"SELECT count(*), sum(id) FROM facts WHERE qty = 250",
	"SELECT count(*) FROM facts WHERE qty >= 490",
	"SELECT count(*) FROM facts WHERE qty < 2.5",
	"SELECT count(*) FROM facts WHERE price > 249.0",
	"SELECT count(*) FROM facts WHERE price <= 0.25",
	"SELECT count(*) FROM facts WHERE grp IS NULL",
	"SELECT count(*) FROM facts WHERE qty IS NOT NULL AND id >= 29000",
	"SELECT count(*) FROM facts WHERE grp = 'apac' AND qty > 100 AND id < 20000",
	"SELECT id FROM facts WHERE id >= 100 AND id < 130 OR id = 29999",
	"SELECT f.id, d.label FROM facts f JOIN dims d ON f.id = d.key WHERE f.id < 40",
	"SELECT grp, count(*) FROM facts WHERE id >= 15000 AND id < 16000 GROUP BY grp ORDER BY grp",
}

// encodedExecFixture builds and checkpoints the mixed-type fixture,
// returning the database path. Closing compresses every segment.
func encodedExecFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "encexec.qdb")
	db, err := quack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE facts (id BIGINT, grp VARCHAR, qty INTEGER, price DOUBLE, flag BOOLEAN)")
	app, err := db.Appender("facts")
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"north", "south", "east", "west", "emea", "apac"}
	const rows = 30_000
	for i := 0; i < rows; i++ {
		var grp any = groups[(i*7)%len(groups)]
		var qty any = int64((i / 31) % 500) // runs of 31 → RLE-friendly
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
	if err := db.Close(); err != nil { // checkpoint compresses the segments
		t.Fatal(err)
	}
	return path
}

// runEncodedPalette reopens the fixture cold, pins the knobs, runs the
// whole palette at one thread count and returns every result set plus
// the encoded-segment counter delta. A fresh open per leg matters: a
// decoded scan installs materialized columns (a column is encoded or
// decoded, never both), so running the disabled leg first would leave
// nothing for the enabled leg to execute encoded.
func runEncodedPalette(t *testing.T, path string, threads int, encodedExec bool) (results [][][]string, encodedSegs int64) {
	t.Helper()
	db, err := quack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Internal().SetEncodedExec(encodedExec)
	mustExec(t, db, fmt.Sprintf("PRAGMA threads=%d", threads))
	before := db.Metrics()["scan_segments_encoded_total"]
	for _, q := range encodedExecQueries {
		results = append(results, queryAll(t, db, q))
	}
	return results, db.Metrics()["scan_segments_encoded_total"] - before
}

// TestEncodedExecDifferential checkpoints a mixed-type fixture and, per
// thread count, replays the palette against two cold opens — encoded
// execution enabled vs. disabled. Results must be byte-identical row
// for row: the selection kernels change which bytes are inspected,
// never what the scan returns. The encoded-segment counter must move
// only on the enabled legs.
func TestEncodedExecDifferential(t *testing.T) {
	path := encodedExecFixture(t)
	for _, threads := range []int{1, 2, 8} {
		got, encOn := runEncodedPalette(t, path, threads, true)
		want, encOff := runEncodedPalette(t, path, threads, false)
		for i, q := range encodedExecQueries {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Errorf("threads=%d query %q diverges with encoded execution on:\n got (%d rows): %.300v\nwant (%d rows): %.300v",
					threads, q, len(got[i]), got[i], len(want[i]), want[i])
			}
		}
		if encOn == 0 {
			t.Fatalf("threads=%d: the palette executed no segment encoded; kernels are not wired into the scan", threads)
		}
		if encOff != 0 {
			t.Fatalf("threads=%d: encoded execution off still executed %d segments encoded", threads, encOff)
		}
	}
}

// scanCounterRe picks a SCAN line's counters out of EXPLAIN ANALYZE:
// rows, segments scanned/skipped, segments run encoded, rows decoded and
// selected (timings vary run to run, so they are left out).
var scanCounterRe = regexp.MustCompile(`(rows|segs|enc|decoded|selected)=[0-9/]+`)

// scanCounters runs q under EXPLAIN ANALYZE and returns the counters of
// its SCAN lines.
func scanCounters(t *testing.T, db *quack.DB, q string) string {
	t.Helper()
	var scans []string
	for _, l := range queryAll(t, db, "EXPLAIN ANALYZE "+q) {
		if strings.Contains(l[0], "SCAN ") {
			scans = append(scans, strings.Join(scanCounterRe.FindAllString(l[0], -1), " "))
		}
	}
	return strings.Join(scans, "; ")
}

// encodedScanGolden is what the scan returned for encodedExecQueries
// while a segment still had two readers (a decoded one and an encoded
// one), replayed in order on one cold open: per query, the result's
// rows, chunk boundaries and hash (joinFingerprint), then its SCAN
// counters with encoded execution on and off. Identical at 1, 2 and 8
// threads. Replaying in order matters: a decoded scan installs the
// columns it decodes, which decides what later queries can run encoded.
var encodedScanGolden = [][3]string{
	{"rows=100 chunks=2 fnv=fbc289f4601e68cc",
		"rows=100 segs=2/28 enc=2 decoded=100 selected=100",
		"rows=100 segs=2/28 decoded=2048 selected=2048"},
	{"rows=1 chunks=1 fnv=447d4d58a9bd84c8",
		"rows=600 segs=1/29 enc=1 decoded=600 selected=600",
		"rows=600 segs=1/29 decoded=1024 selected=1024"},
	{"rows=1 chunks=1 fnv=778c5ccbc5c96442",
		"rows=100 segs=1/29 enc=1 decoded=100 selected=100",
		"rows=100 segs=1/29 decoded=304 selected=304"},
	{"rows=1 chunks=1 fnv=05539432f2ffa676",
		"rows=1 segs=1/29 enc=1 decoded=1 selected=1",
		"rows=1 segs=1/29 decoded=1024 selected=1024"},
	{"rows=1 chunks=1 fnv=068345d30f277613",
		"rows=29999 segs=30/0 enc=30 decoded=29999 selected=29999",
		"rows=29999 segs=30/0 decoded=30000 selected=30000"},
	{"rows=1 chunks=1 fnv=fb82b96a1d311c5f",
		"rows=4949 segs=30/0 enc=30 decoded=4949 selected=4949",
		"rows=4949 segs=30/0 decoded=30000 selected=30000"},
	{"rows=1 chunks=1 fnv=217bc2c1613bfda0",
		"rows=24742 segs=30/0 enc=30 decoded=24742 selected=24742",
		"rows=24742 segs=30/0 decoded=30000 selected=30000"},
	{"rows=1 chunks=1 fnv=ae7c7fd13edabdfd",
		"rows=0 segs=0/30",
		"rows=0 segs=30/0 decoded=30000 selected=30000"},
	{"rows=1 chunks=1 fnv=f43aae6a1975665c",
		"rows=4948 segs=30/0 enc=30 decoded=4948 selected=4948",
		"rows=4948 segs=30/0 decoded=30000 selected=30000"},
	{"rows=1 chunks=1 fnv=483ca3e0dd5f586b",
		"rows=62 segs=3/27 enc=3 decoded=62 selected=62",
		"rows=62 segs=3/27 decoded=3072 selected=3072"},
	{"rows=1 chunks=1 fnv=8afa6b35ba05d446",
		"rows=306 segs=2/28 enc=2 decoded=306 selected=306",
		"rows=306 segs=2/28 decoded=2048 selected=2048"},
	{"rows=1 chunks=1 fnv=50df09874abec56f",
		"rows=183 segs=2/28 enc=2 decoded=183 selected=183",
		"rows=183 segs=2/28 decoded=2048 selected=2048"},
	{"rows=1 chunks=1 fnv=a3c0984ab5fef2f4",
		"rows=89 segs=29/1 enc=29 decoded=89 selected=89",
		"rows=89 segs=29/1 decoded=29696 selected=29696"},
	{"rows=1 chunks=1 fnv=551476a49cf05ea1",
		"rows=59 segs=30/0 enc=30 decoded=59 selected=59",
		"rows=59 segs=30/0 decoded=30000 selected=30000"},
	{"rows=1 chunks=1 fnv=2df8113ea2b2b9d1",
		"rows=310 segs=30/0 enc=30 decoded=310 selected=310",
		"rows=310 segs=30/0 decoded=30000 selected=30000"},
	{"rows=1 chunks=1 fnv=8d761cc3565b2a5a",
		"rows=988 segs=2/28 enc=2 decoded=988 selected=988",
		"rows=988 segs=2/28 decoded=1328 selected=1328"},
	{"rows=1 chunks=1 fnv=5a0787da027c57f9",
		"rows=2242 segs=15/15 enc=15 decoded=2242 selected=2242",
		"rows=2242 segs=15/15 decoded=15360 selected=15360"},
	{"rows=31 chunks=2 fnv=bcda79d25a86e594",
		"rows=31 segs=30/0 decoded=30000 selected=30000",
		"rows=31 segs=30/0 decoded=30000 selected=30000"},
	{"rows=40 chunks=1 fnv=2f300849ef04ef6e",
		"rows=40 segs=1/29 decoded=1024 selected=1024; rows=64 segs=1/0 decoded=64 selected=64",
		"rows=40 segs=1/29 decoded=1024 selected=1024; rows=64 segs=1/0 decoded=64 selected=64"},
	{"rows=7 chunks=1 fnv=eceae2bf5ab13b3e",
		"rows=1000 segs=2/28 decoded=2048 selected=2048",
		"rows=1000 segs=2/28 decoded=2048 selected=2048"},
}

// TestEncodedScanIdenticalToParent pins results, chunk boundaries and
// the scan counters of the encoded-execution palette to encodedScanGolden
// at every thread count, with encoded execution on and off.
func TestEncodedScanIdenticalToParent(t *testing.T) {
	path := encodedExecFixture(t)
	for _, threads := range []int{1, 2, 8} {
		for leg, encodedExec := range []bool{true, false} {
			db, err := quack.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			db.Internal().SetEncodedExec(encodedExec)
			mustExec(t, db, fmt.Sprintf("PRAGMA threads=%d", threads))
			for i, q := range encodedExecQueries {
				counters := scanCounters(t, db, q)
				got := joinFingerprint(t, db, q)
				if want := encodedScanGolden[i]; got != want[0] || counters != want[1+leg] {
					t.Errorf("threads=%d encoded=%v %q:\n got %s | %s\nwant %s | %s",
						threads, encodedExec, q, got, counters, want[0], want[1+leg])
				}
			}
			db.Close()
		}
	}
}

// TestExplainIndependentOfLoadedColumns: EXPLAIN's skip count on a
// reopened file table comes from the zone maps alone, so it reads the
// same before and after a query loads the filtered column, and EXPLAIN
// makes no claim about encoded execution. The table's 20 segments hold
// only 'a' and 'c', which the scan refutes for region = 'b' from the
// dictionaries once it has loaded them, while the zone maps cannot.
func TestExplainIndependentOfLoadedColumns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "explain.qdb")
	db, err := quack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (region VARCHAR, qty BIGINT)")
	app, err := db.Appender("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20*1024; i++ {
		region := "a"
		if i%2 == 1 {
			region = "c"
		}
		if err := app.AppendRow(region, int64(i%100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT count(*) FROM t WHERE region = 'b'",
		"SELECT count(*) FROM t WHERE qty > 90",
	} {
		db, err := quack.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		cold := queryAll(t, db, "EXPLAIN "+q)
		analyzed := fmt.Sprint(queryAll(t, db, "EXPLAIN ANALYZE "+q))
		if strings.Contains(q, "'b'") && !strings.Contains(analyzed, "segs=0/20 scanned/skipped") {
			t.Fatalf("%q: the scan no longer skips every segment on its dictionaries: %s", q, analyzed)
		}
		warm := queryAll(t, db, "EXPLAIN "+q)
		if fmt.Sprint(cold) != fmt.Sprint(warm) {
			t.Errorf("%q: EXPLAIN changed once the column was loaded\ncold: %v\nwarm: %v", q, cold, warm)
		}
		for _, l := range warm {
			if strings.Contains(l[0], "encoded execution") {
				t.Errorf("%q: EXPLAIN claims %q", q, l[0])
			}
		}
		db.Close()
	}
}

// TestEncodedExecExplainAndWrites pins the observability surface and
// the write interaction on a single connection: EXPLAIN ANALYZE reports
// the segments that ran encoded, the rows_encoded_selected counter
// moves, and an UPDATE — which materializes its segments — steps encoded
// execution aside without changing what a subsequent scan sees.
func TestEncodedExecExplainAndWrites(t *testing.T) {
	path := encodedExecFixture(t)
	db, err := quack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Internal().SetZoneMaps(true)
	db.Internal().SetEncodedExec(true)

	queryAll(t, db, "SELECT count(*) FROM facts WHERE grp = 'emea'")
	if db.Metrics()["scan_segments_encoded_total"] == 0 {
		t.Fatal("dictionary predicate executed no segment encoded")
	}
	if db.Metrics()["scan_rows_encoded_selected_total"] == 0 {
		t.Fatal("encoded execution selected no rows")
	}
	var scanLine string
	for _, l := range queryAll(t, db, "EXPLAIN ANALYZE SELECT count(*) FROM facts WHERE grp = 'emea'") {
		if strings.Contains(l[0], "SCAN facts") {
			scanLine = l[0]
		}
	}
	if !strings.Contains(scanLine, " enc=") {
		t.Fatalf("EXPLAIN ANALYZE's SCAN line reports no encoded segments for a dictionary predicate: %q", scanLine)
	}

	// Writes materialize their segments; encoded execution must step
	// aside without changing results.
	mustExec(t, db, "UPDATE facts SET qty = 999 WHERE id >= 4000 AND id < 4010")
	db.Internal().SetEncodedExec(false)
	want := queryAll(t, db, "SELECT count(*), sum(qty) FROM facts WHERE qty = 999")
	db.Internal().SetEncodedExec(true)
	got := queryAll(t, db, "SELECT count(*), sum(qty) FROM facts WHERE qty = 999")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-update scan diverges: got %v want %v", got, want)
	}
}
