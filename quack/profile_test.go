package quack_test

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/table"
	"repro/quack"
)

// profNode mirrors the JSON operator tree of PRAGMA last_profile.
type profNode struct {
	Name        string      `json:"name"`
	Rows        int64       `json:"rows"`
	Morsels     int64       `json:"morsels"`
	Groups      int64       `json:"agg_groups"`
	StateBytes  int64       `json:"agg_state_bytes"`
	FinishNs    int64       `json:"agg_finish_ns"`
	Folded      int64       `json:"agg_folded"`
	Reloaded    int64       `json:"agg_reloaded_parts"`
	Resplit     int64       `json:"agg_resplit_depth"`
	BuildRows   int64       `json:"join_build_rows"`
	BuildBytes  int64       `json:"join_build_bytes"`
	BuildKeys   int64       `json:"join_build_keys"`
	TableBytes  int64       `json:"join_table_bytes"`
	Fallback    string      `json:"join_fallback"`
	BusyNs      int64       `json:"busy_ns"`
	SegsScanned int64       `json:"segments_scanned"`
	SegsSkipped int64       `json:"segments_skipped"`
	SpillBytes  int64       `json:"spill_bytes"`
	SpillParts  int64       `json:"spill_partitions"`
	SegsEncoded int64       `json:"segments_encoded"`
	Selected    int64       `json:"selected_rows"`
	Ties        int64       `json:"tie_fallbacks"`
	MergeRanges int64       `json:"merge_ranges"`
	MergeAhead  int64       `json:"merge_ahead_bytes"`
	MergeParks  int64       `json:"merge_parks"`
	Children    []*profNode `json:"children"`
}

// profDoc mirrors the JSON envelope of PRAGMA last_profile.
type profDoc struct {
	Query      string    `json:"query"`
	Threads    int       `json:"threads"`
	Rows       int64     `json:"rows"`
	SpillBytes int64     `json:"spill_bytes"`
	ExecuteNs  int64     `json:"execute_ns"`
	Plan       *profNode `json:"plan"`
}

// lastProfile runs q and returns its parsed profile: every statement is
// profiled.
func lastProfile(t *testing.T, c *quack.Conn, q string) *profDoc {
	t.Helper()
	doc, err := runProfiled(c, q)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// runProfiled is lastProfile for callers off the test goroutine.
func runProfiled(c *quack.Conn, q string) (*profDoc, error) {
	rows, err := c.Query(q)
	if err != nil {
		return nil, fmt.Errorf("query %q: %v", q, err)
	}
	for rows.NextChunk() != nil {
	}
	pr, err := c.Query("PRAGMA last_profile")
	if err != nil {
		return nil, fmt.Errorf("last_profile: %v", err)
	}
	if !pr.Next() {
		return nil, fmt.Errorf("last_profile returned no rows")
	}
	var doc profDoc
	if err := json.Unmarshal([]byte(pr.Value(0).String()), &doc); err != nil {
		return nil, fmt.Errorf("last_profile JSON: %v", err)
	}
	if doc.Plan == nil {
		return nil, fmt.Errorf("last_profile has no plan tree: %s", pr.Value(0).String())
	}
	return &doc, nil
}

// accountCells are the registry cells that add up the queries'
// accounts, one per counter a query's account carries.
var accountCells = []string{
	"scan_segments_scanned_total", "scan_segments_skipped_total",
	"scan_segments_encoded_total", "scan_rows_encoded_selected_total",
	"agg_spill_partitions_total", "agg_spill_bytes_total",
	"sort_spill_bytes_total", "sort_key_tie_fallbacks_total",
}

// profileTotals sums a profile into the account cells: spill bytes of
// AGGREGATE lines are the aggregation's, every other line's are its
// sorts'. A scan's encoded rows are its selected rows when every segment
// it scanned ran encoded and 0 when none did; the profile does not split
// a scan that mixed the two, so one fails the test. So does a scan of a
// table in morsels (every scan of the profile must have been drained)
// whose morsels — the segments it booked as scanned or skipped — are not
// the table's morsels: a segment booked twice or missed.
func profileTotals(doc *profDoc, morsels map[string]int64) (map[string]int64, error) {
	out := make(map[string]int64, len(accountCells))
	var bad error
	var walk func(n *profNode)
	walk = func(n *profNode) {
		want := int64(0) // an operator that is not a scan claims none
		if f := strings.FieldsFunc(n.Name, func(r rune) bool { return r == ' ' || r == '(' }); len(f) > 1 && f[0] == "SCAN" {
			want = morsels[f[1]]
		}
		if n.Morsels != want || n.Morsels != n.SegsScanned+n.SegsSkipped {
			bad = fmt.Errorf("%s claimed %d morsels, booked %d segments; the table has %d", n.Name, n.Morsels, n.SegsScanned+n.SegsSkipped, want)
		}
		out["scan_segments_scanned_total"] += n.SegsScanned
		out["scan_segments_skipped_total"] += n.SegsSkipped
		out["scan_segments_encoded_total"] += n.SegsEncoded
		switch n.SegsEncoded {
		case 0:
		case n.SegsScanned:
			out["scan_rows_encoded_selected_total"] += n.Selected
		default:
			bad = fmt.Errorf("%s ran %d of %d segments encoded", n.Name, n.SegsEncoded, n.SegsScanned)
		}
		out["agg_spill_partitions_total"] += n.SpillParts
		if strings.HasPrefix(n.Name, "AGGREGATE") {
			out["agg_spill_bytes_total"] += n.SpillBytes
		} else {
			out["sort_spill_bytes_total"] += n.SpillBytes
		}
		out["sort_key_tie_fallbacks_total"] += n.Ties
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(doc.Plan)
	return out, bad
}

// tableMorsels is how many morsels a scan of each named table hands out
// (table.MorselSource.NumMorsels): what a drained scan of it books.
func tableMorsels(t *testing.T, db *quack.DB, names ...string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64, len(names))
	tx := db.Internal().Txns().Begin()
	defer db.Internal().Txns().Rollback(tx)
	for _, name := range names {
		entry, err := db.Internal().Catalog().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		// No columns: counting the morsels loads none of a file table's.
		src, err := entry.Data.NewMorselSource(tx, table.ScanOptions{Columns: []int{}})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = int64(src.NumMorsels())
		src.Close()
	}
	return out
}

// checkAccountCells compares the account cells' registry deltas between
// m0 and m1 with want.
func checkAccountCells(t *testing.T, what string, m0, m1, want map[string]int64) {
	t.Helper()
	for _, name := range accountCells {
		if d := m1[name] - m0[name]; d != want[name] {
			t.Errorf("%s: registry %s moved by %d, the profiles add up to %d", what, name, d, want[name])
		}
	}
}

// flattenRows renders the tree as "name=rows/morsels/groups" in preorder
// — the determinism fingerprint compared across thread counts and
// budgets: the same operators, the same rows through each, the same
// morsels claimed by each scan, the same groups out of each aggregation.
// (An aggregation's state_bytes is a peak of reservations: it depends on
// workers and budget, and stays out.)
func flattenRows(n *profNode, out *[]string) {
	*out = append(*out, fmt.Sprintf("%s=%d/m%d/g%d", n.Name, n.Rows, n.Morsels, n.Groups))
	for _, c := range n.Children {
		flattenRows(c, out)
	}
}

// sumTree totals one numeric field over the whole operator tree.
func sumTree(n *profNode, f func(*profNode) int64) int64 {
	total := f(n)
	for _, c := range n.Children {
		total += sumTree(c, f)
	}
	return total
}

// profilePalette exercises every profiled operator family: parallel
// scan+filter pipelines, hash join, grouped aggregation (including the
// high-cardinality shape that spills under a budget), external sort
// and a window function.
var profilePalette = []string{
	"SELECT grp, count(*), sum(qty) FROM facts JOIN dims ON id = key GROUP BY grp",
	"SELECT id, price FROM facts WHERE qty > 100 ORDER BY price, id",
	"SELECT id - id % 8, count(*), sum(price) FROM facts GROUP BY 1",
	"SELECT id, sum(qty) OVER (PARTITION BY grp ORDER BY id) FROM facts WHERE id < 8000",
}

// TestProfileRowDeterminism pins the profiler to the engine's core
// invariant: the profile tree — operator names, per-operator row counts
// and per-scan morsel counts — is identical at every thread count, with
// and without a memory budget. There is one executor, so one worker
// and eight walk the same operators; parallelism and spilling may
// change timings, never what flowed through the plan.
func TestProfileRowDeterminism(t *testing.T) {
	type config struct {
		name    string
		threads int
		budget  string // PRAGMA memory_limit after the fixture is built
	}
	configs := []config{
		{"t1", 1, ""},
		{"t2", 2, ""},
		{"t8", 8, ""},
		{"t8-budget", 8, "2MB"},
	}
	want := make(map[string][]string) // query → fingerprint from config 0
	for _, cfg := range configs {
		db := differentialDBWith(t, quack.WithThreads(cfg.threads))
		if cfg.budget != "" {
			mustExec(t, db, "PRAGMA memory_limit='"+cfg.budget+"'")
		}
		conn := db.Conn()
		for _, q := range profilePalette {
			doc := lastProfile(t, conn, q)
			if doc.Threads != cfg.threads {
				t.Errorf("%s %q: profile says %d threads, want %d", cfg.name, q, doc.Threads, cfg.threads)
			}
			var got []string
			flattenRows(doc.Plan, &got)
			if base, ok := want[q]; !ok {
				want[q] = got
			} else if strings.Join(base, "\n") != strings.Join(got, "\n") {
				t.Errorf("%s %q: operator rows diverged\nbase: %v\n got: %v", cfg.name, q, base, got)
			}
			if doc.Plan.Rows != doc.Rows {
				t.Errorf("%s %q: root operator rows %d != result rows %d", cfg.name, q, doc.Plan.Rows, doc.Rows)
			}
		}
	}
}

// TestProfileRegistryReconciliation cross-checks the two observability
// surfaces against each other: the registry deltas a profiled query
// causes must equal the totals summed over its profile tree, in every
// cell the query's account feeds.
func TestProfileRegistryReconciliation(t *testing.T) {
	db := differentialDBWith(t, quack.WithThreads(4))
	morsels := tableMorsels(t, db, "facts")
	conn := db.Conn()
	// A filter zone maps can refute: some segments skip, the rest scan.
	q := "SELECT count(*), sum(qty) FROM facts WHERE id < 7000"
	m0 := db.Metrics()
	doc := lastProfile(t, conn, q)
	m1 := db.Metrics()

	scanned := sumTree(doc.Plan, func(n *profNode) int64 { return n.SegsScanned })
	skipped := sumTree(doc.Plan, func(n *profNode) int64 { return n.SegsSkipped })
	if d := m1["scan_segments_scanned_total"] - m0["scan_segments_scanned_total"]; d != scanned {
		t.Errorf("registry says %d segments scanned, profile says %d", d, scanned)
	}
	if d := m1["scan_segments_skipped_total"] - m0["scan_segments_skipped_total"]; d != skipped {
		t.Errorf("registry says %d segments skipped, profile says %d", d, skipped)
	}
	if scanned == 0 {
		t.Error("profiled scan reports zero segments scanned")
	}
	if skipped == 0 {
		t.Error("zone-mappable filter skipped no segments")
	}
	if d := m1["query_count"] - m0["query_count"]; d != 1 {
		t.Errorf("query histogram advanced by %d, want 1", d)
	}
	if m1["sched_steps_total"] <= m0["sched_steps_total"] {
		t.Error("scheduler steps did not advance across a parallel query")
	}
	want, err := profileTotals(doc, morsels)
	if err != nil {
		t.Fatal(err)
	}
	checkAccountCells(t, q, m0, m1, want)

	// Every cell, on queries that move it: a cold file table runs a
	// dictionary predicate encoded, and under a budget an aggregation and
	// a sort of long shared-prefix strings spill.
	fdb, err := quack.Open(encodedExecFixture(t), quack.WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	fmorsels := tableMorsels(t, fdb, "facts")
	mustExec(t, fdb, "PRAGMA memory_limit='1MB'")
	fconn := fdb.Conn()
	moved := want // the in-memory query counts toward coverage too
	for _, q := range []string{
		"SELECT count(*) FROM facts WHERE grp = 'emea'",
		"SELECT id - id % 4, count(*), sum(price), min(qty) FROM facts GROUP BY 1",
		"SELECT id FROM facts ORDER BY 'https://example.org/items/' || grp, id",
	} {
		m0 := fdb.Metrics()
		doc := lastProfile(t, fconn, q)
		m1 := fdb.Metrics()
		want, err := profileTotals(doc, fmorsels)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		checkAccountCells(t, q, m0, m1, want)
		for name, v := range want {
			moved[name] += v
		}
	}
	for _, name := range accountCells {
		if moved[name] == 0 {
			t.Errorf("no query moved %s; the palette no longer covers it", name)
		}
	}
}

// TestAccountsAddUpAcrossSessions: sixteen sessions at four threads each
// under a 1MB budget scan, spill an aggregation and sort at once, and the
// registry cells move by exactly what their profiles add up to.
func TestAccountsAddUpAcrossSessions(t *testing.T) {
	db := differentialDBWith(t, quack.WithThreads(4))
	morsels := tableMorsels(t, db, "facts")
	mustExec(t, db, "PRAGMA memory_limit='1MB'")
	queries := []string{
		"SELECT count(*), sum(qty) FROM facts WHERE id < 7000",
		"SELECT id - id % 4, count(*), sum(price) FROM facts GROUP BY 1",
		"SELECT id, price FROM facts WHERE qty > 100 ORDER BY price, id",
	}
	const sessions = 16
	docs := make([][]*profDoc, sessions)
	errs := make([]error, sessions)
	m0 := db.Metrics()
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := db.Conn()
			for _, q := range queries {
				doc, err := runProfiled(conn, q)
				if err != nil {
					errs[i] = err
					return
				}
				docs[i] = append(docs[i], doc)
			}
		}(i)
	}
	wg.Wait()
	m1 := db.Metrics()
	want := make(map[string]int64)
	for i := range docs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		for _, doc := range docs[i] {
			tot, err := profileTotals(doc, morsels)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range tot {
				want[name] += v
			}
		}
	}
	checkAccountCells(t, "16 sessions", m0, m1, want)
	if want["agg_spill_bytes_total"] == 0 || want["scan_segments_skipped_total"] == 0 {
		t.Errorf("the palette spilled %dB and skipped %d segments, want both > 0",
			want["agg_spill_bytes_total"], want["scan_segments_skipped_total"])
	}
}

// TestFailedQuerySpillIsBooked: a query whose aggregation spills and
// whose projection then fails still adds its spill to the registry.
func TestFailedQuerySpillIsBooked(t *testing.T) {
	db := differentialDBWith(t, quack.WithThreads(2))
	mustExec(t, db, "PRAGMA memory_limit='256KB'")
	before := db.Metrics()["agg_spill_bytes_total"]
	q := "SELECT k, s % (k - k) FROM (SELECT id - id % 4 AS k, sum(qty) AS s FROM facts GROUP BY 1) g"
	if _, err := db.Query(q); err == nil {
		t.Fatal("modulo by zero above the aggregation succeeded")
	}
	if after := db.Metrics()["agg_spill_bytes_total"]; after <= before {
		t.Errorf("agg_spill_bytes_total stayed at %d across a failed query that spilled", after)
	}
}

// TestProfileSpillReconciliation forces the aggregation spill path and
// checks the bytes agree between profile tree, profile envelope and
// registry delta.
func TestProfileSpillReconciliation(t *testing.T) {
	db := differentialDBWith(t, quack.WithThreads(2))
	mustExec(t, db, "PRAGMA memory_limit='256KB'")
	conn := db.Conn()
	q := "SELECT id - id % 4, count(*), sum(price), min(qty) FROM facts GROUP BY 1"
	m0 := db.Metrics()
	doc := lastProfile(t, conn, q)
	m1 := db.Metrics()
	treeSpill := sumTree(doc.Plan, func(n *profNode) int64 { return n.SpillBytes })
	if treeSpill != doc.SpillBytes {
		t.Errorf("tree spill %dB != envelope spill %dB", treeSpill, doc.SpillBytes)
	}
	if treeSpill == 0 {
		t.Error("256KB budget over ~7500 groups spilled nothing; fixture no longer forces the spill path")
	}
	regSpill := (m1["agg_spill_bytes_total"] - m0["agg_spill_bytes_total"]) +
		(m1["sort_spill_bytes_total"] - m0["sort_spill_bytes_total"])
	if regSpill != doc.SpillBytes {
		t.Errorf("registry spill delta %dB != profile spill %dB", regSpill, doc.SpillBytes)
	}
}

// TestExplainAnalyze smoke-tests the text surface over a join+agg+sort
// plan: the tree renders with measured row counts, the phase and totals
// lines are present, and the reported row total matches a plain run.
func TestExplainAnalyze(t *testing.T) {
	db := differentialDBWith(t, quack.WithThreads(4))
	conn := db.Conn()
	q := "SELECT grp, count(*) AS n, sum(qty) FROM facts JOIN dims ON id = key GROUP BY grp ORDER BY grp"
	direct, err := conn.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := direct.NumRows()

	res, err := conn.Query("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatalf("explain analyze: %v", err)
	}
	var lines []string
	for res.Next() {
		var s string
		if err := res.Scan(&s); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, s)
	}
	text := strings.Join(lines, "\n")
	for _, wantPiece := range []string{"rows=", "morsels=", "phases: parse=", "totals: threads="} {
		if !strings.Contains(text, wantPiece) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", wantPiece, text)
		}
	}
	// The totals line reports the executed statement's real row count.
	if want := fmt.Sprintf("rows=%d", wantRows); !strings.Contains(text, want) {
		t.Errorf("EXPLAIN ANALYZE totals missing %q:\n%s", want, text)
	}
	// The profile of the analyzed run is retrievable afterwards.
	pr, err := conn.Query("PRAGMA last_profile")
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Next() {
		t.Fatal("no last_profile after EXPLAIN ANALYZE")
	}
	var doc profDoc
	if err := json.Unmarshal([]byte(pr.Value(0).String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Rows != wantRows {
		t.Errorf("profile rows %d, want %d", doc.Rows, wantRows)
	}
	if !strings.Contains(doc.Query, "EXPLAIN ANALYZE") {
		t.Errorf("profile query text %q does not carry the statement", doc.Query)
	}
}

// TestExplainAnalyzeSortKeys: the sort and window lines report the
// normalized key width and how many comparisons fell through to the
// full string compare — zero for keys the encoded bytes decide, non-zero
// for strings that share more than the encoded prefix — and the registry
// cell moves by the same amount.
func TestExplainAnalyzeSortKeys(t *testing.T) {
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE urls (id BIGINT, u VARCHAR, short VARCHAR)")
	app, err := db.Appender("urls")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := app.AppendRow(int64(i), fmt.Sprintf("https://example.org/items/%04d", (i*7919)%5000), fmt.Sprintf("k%d", i%50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	lineOf := func(q, op string) string {
		t.Helper()
		for _, row := range queryAll(t, db, "EXPLAIN ANALYZE "+q) {
			if strings.Contains(row[0], op) {
				return row[0]
			}
		}
		t.Fatalf("no %s line in EXPLAIN ANALYZE %s", op, q)
		return ""
	}
	fallbacks := func(line string) int64 {
		t.Helper()
		_, rest, ok := strings.Cut(line, "tie_fallbacks=")
		if !ok || !strings.Contains(line, "key_bytes=") {
			t.Fatalf("line reports no key_bytes/tie_fallbacks: %s", line)
		}
		n, err := strconv.ParseInt(strings.TrimRight(strings.Fields(rest)[0], "]"), 10, 64)
		if err != nil {
			t.Fatalf("tie_fallbacks in %q: %v", line, err)
		}
		return n
	}
	before := db.Metrics()["sort_key_tie_fallbacks_total"]
	var booked int64
	for _, c := range []struct {
		q, op string
		ties  bool
	}{
		{"SELECT id FROM urls ORDER BY id DESC", "SORT", false},
		{"SELECT id FROM urls ORDER BY short, id", "SORT", false},
		{"SELECT id FROM urls ORDER BY u", "SORT", true},
		{"SELECT id, row_number() OVER (PARTITION BY short ORDER BY id) FROM urls", "WINDOW", false},
		{"SELECT id, row_number() OVER (PARTITION BY u ORDER BY id) FROM urls", "WINDOW", true},
	} {
		n := fallbacks(lineOf(c.q, c.op))
		if (n > 0) != c.ties {
			t.Errorf("%s: tie_fallbacks=%d, want >0: %v", c.q, n, c.ties)
		}
		booked += n
	}
	if got := db.Metrics()["sort_key_tie_fallbacks_total"] - before; got != booked {
		t.Errorf("sort_key_tie_fallbacks_total moved by %d, the profiles booked %d", got, booked)
	}
}

// TestExplainAnalyzeJoinBuild: the join says what it did. Its line
// carries the build side's row count and the pool bytes held for it and
// the table, the table's distinct keys and the bytes it really occupies,
// and an Auto join that degraded to the merge join because the build did
// not fit the budget says so, with its sorts' key width and spill — at
// one worker and at four.
func TestExplainAnalyzeJoinBuild(t *testing.T) {
	for _, threads := range []int{1, 4} {
		// Unlimited at first, whatever QUACK_MEMORY_LIMIT a CI leg exports.
		db, err := quack.Open(":memory:", quack.WithThreads(threads), quack.WithMemoryLimit(-1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		mustExec(t, db, "CREATE TABLE small (k BIGINT)")
		mustExec(t, db, "CREATE TABLE big (k BIGINT, v BIGINT)")
		app, err := db.Appender("big")
		if err != nil {
			t.Fatal(err)
		}
		const bigRows = 40_000
		for i := 0; i < bigRows; i++ {
			if err := app.AppendRow(int64(i), int64(i*3)); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "INSERT INTO small SELECT k FROM big WHERE k % 400 = 0")
		conn := db.Conn()
		const q = "SELECT small.k, big.v FROM small JOIN big ON small.k = big.k"
		for _, budget := range []string{"", "1MB"} {
			if budget != "" {
				mustExec(t, db, "PRAGMA memory_limit='"+budget+"'")
			}
			doc := lastProfile(t, conn, q)
			join := doc.Plan
			for !strings.HasPrefix(join.Name, "INNER JOIN") {
				join = join.Children[0]
			}
			if doc.Rows != bigRows/400 {
				t.Fatalf("threads=%d budget=%q: %d rows, want %d", threads, budget, doc.Rows, bigRows/400)
			}
			if budget == "" {
				// 16 B of payload and 24 B of table per build row.
				if join.BuildRows != bigRows || join.BuildBytes != bigRows*40 || join.Fallback != "" {
					t.Errorf("threads=%d: build_rows=%d build_bytes=%d fallback=%q, want %d rows, %d bytes, no fallback",
						threads, join.BuildRows, join.BuildBytes, join.Fallback, bigRows, bigRows*40)
				}
				// The table, slice by slice: 40000 keys in a store doubled from
				// 16 slots to 65536, each slot's hash, first position, touch
				// stamp and key 8 B, 131072 8-byte buckets; then one 8-byte ref
				// per row and bigRows+1 4-byte list offsets.
				const slots, buckets = 1 << 16, 1 << 17
				wantTable := int64(slots*4*8 + buckets*8 + bigRows*8 + (bigRows+1)*4)
				if join.BuildKeys != bigRows || join.TableBytes != wantTable {
					t.Errorf("threads=%d: build_keys=%d table_bytes=%d, want %d keys, %d bytes",
						threads, join.BuildKeys, join.TableBytes, bigRows, wantTable)
				}
				continue
			}
			if join.Fallback != "merge" || join.BuildRows == 0 || join.BuildRows >= bigRows || join.BuildBytes > 1<<20 {
				t.Errorf("threads=%d budget=%s: build_rows=%d build_bytes=%d fallback=%q, want a partial build handed to the merge join",
					threads, budget, join.BuildRows, join.BuildBytes, join.Fallback)
			}
			var text []string
			for _, row := range queryAll(t, db, "EXPLAIN ANALYZE "+q) {
				text = append(text, row[0])
			}
			// The merge join's sorters spill under the budget, and its line
			// says so beside their key width.
			for _, piece := range []string{"build_rows=", "build_bytes=", "fallback=merge", "key_bytes=", "spilled="} {
				if !strings.Contains(strings.Join(text, "\n"), piece) {
					t.Errorf("threads=%d budget=%s: EXPLAIN ANALYZE has no %q:\n%s", threads, budget, piece, strings.Join(text, "\n"))
				}
			}
		}
	}
}

// TestExplainAnalyzeAggFinish pins the aggregation's finish on the
// AGGREGATE line, next to busy=, and in the JSON profile: its time, the
// groups folded from one worker's table into another's, and the
// partitions re-loaded from state runs with the deepest re-split. With
// no limit nothing is re-loaded, and a key that recurs in every morsel
// folds across the workers' tables; under a 256KB limit the
// high-cardinality aggregation spills while it accumulates, so the
// finish re-loads the partitions that spilled — and only then.
func TestExplainAnalyzeAggFinish(t *testing.T) {
	db := differentialDBWith(t, quack.WithThreads(2), quack.WithMemoryLimit(-1))
	conn := db.Conn()
	for _, tc := range []struct {
		q, budget string
		folds     bool
	}{
		{"SELECT id - id % 4, count(*), sum(price), min(qty) FROM facts GROUP BY 1", "", false},
		{"SELECT id % 1000, count(*), sum(price) FROM facts GROUP BY 1", "", true},
		{"SELECT id - id % 4, count(*), sum(price), min(qty) FROM facts GROUP BY 1", "256KB", false},
	} {
		if tc.budget != "" {
			mustExec(t, db, "PRAGMA memory_limit='"+tc.budget+"'")
		}
		doc := lastProfile(t, conn, tc.q)
		agg := doc.Plan
		for !strings.HasPrefix(agg.Name, "AGGREGATE") {
			agg = agg.Children[0]
		}
		spilled := agg.SpillBytes > 0
		if spilled != (tc.budget != "") {
			t.Fatalf("%q budget=%q: spilled %dB", tc.q, tc.budget, agg.SpillBytes)
		}
		if agg.FinishNs <= 0 || (agg.Folded > 0) != tc.folds || (agg.Reloaded > 0) != spilled || agg.Reloaded > 16 {
			t.Errorf("%q budget=%q: agg_finish_ns=%d agg_folded=%d agg_reloaded_parts=%d", tc.q, tc.budget, agg.FinishNs, agg.Folded, agg.Reloaded)
		}
		var line string
		for _, row := range queryAll(t, db, "EXPLAIN ANALYZE "+tc.q) {
			if strings.Contains(row[0], "AGGREGATE") {
				line = row[0]
			}
		}
		want := regexp.MustCompile(`busy=\S+ finish=\S+ folded=\d+ reloaded_parts=(\d+) resplit_depth=\d+ `)
		m := want.FindStringSubmatch(line)
		if m == nil || (m[1] != "0") != spilled {
			t.Errorf("%q budget=%q: AGGREGATE line lacks the finish fields next to busy=:\n%s", tc.q, tc.budget, line)
		}
	}
}

// TestExplainAnalyzeBreakerBusy pins where pipeline-fused work is
// booked: a breaker's sink (accumulation, run generation) and a join's
// probe run inside the scan pipeline's workers, but their time belongs
// to the breaker's and the join's own busy_ns, not to the scan leaf's —
// at one worker and at four alike. The split itself is timing (and
// columnar accumulation costs less than the scan that feeds it), so what
// is pinned is that the breaker (and a join feeding it) has busy time at
// all and that the scan reports morsels; that the time goes there and
// not to the scan is pinned deterministically, with a sleeping sink and
// a sleeping probe, by TestProfileSinkTimeBookedToBreaker and
// TestProfileProbeTimeBookedToJoin in internal/exec.
func TestExplainAnalyzeBreakerBusy(t *testing.T) {
	find := func(n *profNode, prefix string) *profNode {
		var hit *profNode
		var walk func(*profNode)
		walk = func(n *profNode) {
			if hit == nil && strings.HasPrefix(n.Name, prefix) {
				hit = n
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(n)
		return hit
	}
	for _, threads := range []int{1, 4} {
		db := differentialDBWith(t, quack.WithThreads(threads))
		conn := db.Conn()
		for _, tc := range []struct{ q, breaker string }{
			{"SELECT id - id % 8, count(*), sum(price) FROM facts GROUP BY 1", "AGGREGATE"},
			{"SELECT id, price FROM facts ORDER BY price, id", "SORT"},
			{"SELECT id, grp FROM facts JOIN dims ON id = key", "INNER JOIN"},
			// The aggregation consumes the probe on the probe side's workers.
			{"SELECT grp, count(*), sum(qty) FROM facts JOIN dims ON id = key GROUP BY grp", "AGGREGATE"},
		} {
			doc := lastProfile(t, conn, tc.q)
			br, scan := find(doc.Plan, tc.breaker), find(doc.Plan, "SCAN")
			if br == nil || scan == nil {
				t.Fatalf("threads=%d %q: no %s over SCAN in the profile", threads, tc.q, tc.breaker)
			}
			if join := find(doc.Plan, "INNER JOIN"); join != nil && (join.BusyNs <= 0 || join.Rows == 0) {
				t.Errorf("threads=%d %q: join busy_ns=%d rows=%d, want its build and probe time and its rows", threads, tc.q, join.BusyNs, join.Rows)
			}
			if scan.Morsels == 0 || scan.BusyNs <= 0 {
				t.Errorf("threads=%d %q: scan morsels=%d busy_ns=%d, want both > 0", threads, tc.q, scan.Morsels, scan.BusyNs)
			}
			if br.BusyNs <= 0 {
				t.Errorf("threads=%d %q: %s busy_ns=%d, want its sink time", threads, tc.q, tc.breaker, br.BusyNs)
			}
		}
		// The same split is what EXPLAIN ANALYZE renders.
		res, err := conn.Query("EXPLAIN ANALYZE SELECT id - id % 8, count(*) FROM facts GROUP BY 1")
		if err != nil {
			t.Fatal(err)
		}
		for res.Next() {
			var line string
			if err := res.Scan(&line); err != nil {
				t.Fatal(err)
			}
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "AGGREGATE") && !strings.Contains(line, "busy=") {
				t.Errorf("threads=%d: AGGREGATE line has no busy time: %s", threads, line)
			}
			// 30000 ids in groups of 8, and whatever their state took.
			if strings.HasPrefix(trimmed, "AGGREGATE") && (!strings.Contains(line, " groups=3750 ") || !strings.Contains(line, " state_bytes=")) {
				t.Errorf("threads=%d: AGGREGATE line lacks groups=3750 state_bytes=N: %s", threads, line)
			}
			if strings.HasPrefix(trimmed, "SCAN") && !strings.Contains(line, "morsels=") {
				t.Errorf("threads=%d: SCAN line has no morsels: %s", threads, line)
			}
		}
	}
}

// TestExplainAnalyzeMergeRanges: SORT and WINDOW lines say how many key
// ranges their merge phase ran on — 1 for the serial merge on the
// caller, where a window without PARTITION BY is also evaluated, more
// when a PARTITION BY window over several workers is cut and evaluated
// on the range workers. A partitioned merge also says how far its ranges
// ran ahead of the consumer (ahead=, JSON merge_ahead_bytes: every batch
// is queued before it is read) and how often one parked on its share of
// the sort budget (parks=, JSON merge_parks).
func TestExplainAnalyzeMergeRanges(t *testing.T) {
	for _, tc := range []struct {
		threads  int
		q, op    string
		parallel bool
	}{
		{1, "SELECT id, price FROM facts ORDER BY price, id", "SORT", false},
		{1, "SELECT id, row_number() OVER (PARTITION BY qty ORDER BY id) FROM facts", "WINDOW", false},
		{4, "SELECT id, price FROM facts ORDER BY price, id", "SORT", true},
		{4, "SELECT id, row_number() OVER (PARTITION BY qty ORDER BY id) FROM facts", "WINDOW", true},
		{4, "SELECT id, row_number() OVER (ORDER BY qty, id) FROM facts", "WINDOW", false},
	} {
		db := differentialDBWith(t, quack.WithThreads(tc.threads))
		doc := lastProfile(t, db.Conn(), tc.q)
		n := doc.Plan
		for !strings.HasPrefix(n.Name, tc.op) {
			if len(n.Children) == 0 {
				t.Fatalf("%q: no %s in the profile", tc.q, tc.op)
			}
			n = n.Children[0]
		}
		if got := n.MergeRanges; (got > 1) != tc.parallel || got < 1 {
			t.Errorf("threads=%d %q: merge_ranges=%d, want partitioned: %v", tc.threads, tc.q, got, tc.parallel)
		}
		if (n.MergeAhead > 0) != tc.parallel || (!tc.parallel && n.MergeParks != 0) {
			t.Errorf("threads=%d %q: merge_ahead_bytes=%d merge_parks=%d, want run-ahead only when partitioned", tc.threads, tc.q, n.MergeAhead, n.MergeParks)
		}
		var text []string
		for _, row := range queryAll(t, db, "EXPLAIN ANALYZE "+tc.q) {
			text = append(text, row[0])
		}
		want := regexp.MustCompile(fmt.Sprintf(` merge_ranges=%d[\]\s]`, n.MergeRanges))
		if tc.parallel {
			want = regexp.MustCompile(fmt.Sprintf(` merge_ranges=%d ahead=[1-9]\d* parks=\d+[\]\s]`, n.MergeRanges))
		}
		if !want.MatchString(strings.Join(text, "\n")) {
			t.Errorf("threads=%d %q: EXPLAIN ANALYZE does not match %q:\n%s", tc.threads, tc.q, want, strings.Join(text, "\n"))
		}
	}
}

// TestSlowQueryLog exercises the WithLogger sink end to end: below the
// threshold nothing is emitted, at threshold 0 every statement logs one
// well-formed JSON line, which carries the statement's operator tree.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var logLines []string
	db := differentialDBWith(t, quack.WithThreads(2), quack.WithLogger(func(line string) {
		mu.Lock()
		logLines = append(logLines, line)
		mu.Unlock()
	}))
	conn := db.Conn()

	run := func(q string) {
		t.Helper()
		rows, err := conn.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for rows.NextChunk() != nil {
		}
	}
	run("SELECT count(*) FROM facts") // default: disabled, no line
	mu.Lock()
	if len(logLines) != 0 {
		t.Fatalf("slow log emitted %d lines while disabled", len(logLines))
	}
	mu.Unlock()

	if _, err := conn.Exec("PRAGMA log_min_duration_ms=0"); err != nil {
		t.Fatal(err)
	}
	run("SELECT count(*) FROM facts WHERE qty > 100")
	mu.Lock()
	defer mu.Unlock()
	if len(logLines) != 1 {
		t.Fatalf("slow log emitted %d lines at threshold 0, want 1", len(logLines))
	}
	var rec struct {
		Query      string    `json:"query"`
		DurationMs *int64    `json:"duration_ms"`
		Rows       int64     `json:"rows"`
		SpillBytes int64     `json:"spill_bytes"`
		Plan       *profNode `json:"plan"`
	}
	if err := json.Unmarshal([]byte(logLines[0]), &rec); err != nil {
		t.Fatalf("slow log line is not JSON: %v (%q)", err, logLines[0])
	}
	if !strings.Contains(rec.Query, "qty > 100") {
		t.Errorf("slow log query %q does not carry the statement", rec.Query)
	}
	if rec.DurationMs == nil {
		t.Error("slow log line missing duration_ms")
	}
	if rec.Rows != 1 {
		t.Errorf("slow log rows %d, want 1", rec.Rows)
	}
	if rec.Plan == nil || rec.Plan.Name != "PROJECT count(*)" || rec.Plan.Rows != rec.Rows {
		t.Errorf("slow log plan %+v, want a PROJECT count(*) root with the result's %d rows", rec.Plan, rec.Rows)
	}
}

// TestEveryQueryIsProfiled: a fresh session that never set a PRAGMA runs
// a GROUP BY, and PRAGMA last_profile holds its operator tree, whose root
// emitted the result's rows.
func TestEveryQueryIsProfiled(t *testing.T) {
	db := differentialDBWith(t, quack.WithThreads(2))
	conn := db.Conn()
	rows, err := conn.Query("SELECT grp, count(*) FROM facts GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	n := rows.NumRows()
	pr, err := conn.Query("PRAGMA last_profile")
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Next() {
		t.Fatal("PRAGMA last_profile returned no rows")
	}
	var doc profDoc
	if err := json.Unmarshal([]byte(pr.Value(0).String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Plan == nil || doc.Plan.Rows != n || n == 0 || len(doc.Plan.Children) != 1 {
		t.Fatalf("last_profile plan %+v after a %d-row GROUP BY, want a root with its rows", doc.Plan, n)
	}
	if agg := doc.Plan.Children[0]; !strings.HasPrefix(agg.Name, "AGGREGATE") || agg.Groups != n {
		t.Errorf("last_profile root's child %s produced %d groups, want an AGGREGATE with %d", agg.Name, agg.Groups, n)
	}
}

// TestMetricsPragmas covers the remaining observability PRAGMAs: the
// registry snapshot — every cell a deleted counter PRAGMA used to
// mirror is listed below — the memory gauges, and the profiling
// readbacks: PRAGMA profiling is accepted and reads 1, since every
// statement is profiled.
func TestMetricsPragmas(t *testing.T) {
	db := differentialDBWith(t, quack.WithThreads(2))
	conn := db.Conn()
	if _, err := conn.Exec("PRAGMA profiling=0"); err != nil {
		t.Fatal(err)
	}
	rows, err := conn.Query("SELECT grp, count(*) FROM facts WHERE id < 9000 GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	for rows.NextChunk() != nil {
	}

	// PRAGMA metrics: (name, value) rows containing the fleet of
	// engine-wide cells, and agreeing with the Go-API snapshot.
	snap := db.Metrics()
	res, err := conn.Query("PRAGMA metrics")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for res.Next() {
		var name string
		var val int64
		if err := res.Scan(&name, &val); err != nil {
			t.Fatal(err)
		}
		got[name] = val
	}
	for _, name := range []string{
		"sched_steps_total", "sched_step_wait_p99_ns", "sched_runnable_depth",
		"admission_admitted_total", "admission_queue_depth",
		"pool_reserved_bytes", "pool_peak_bytes", "wal_bytes",
		"scan_segments_scanned_total", "scan_segments_skipped_total",
		"scan_segments_encoded_total", "scan_rows_encoded_selected_total",
		"scan_bytes_decompressed_total", "agg_spill_partitions_total", "agg_spill_bytes_total",
		"sort_spill_bytes_total", "sort_key_tie_fallbacks_total", "query_count", "query_p50_ns",
		"checkpoint_count",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("PRAGMA metrics missing %q", name)
		}
		if _, ok := snap[name]; !ok {
			t.Errorf("DB.Metrics missing %q", name)
		}
	}
	if got["query_count"] < 1 {
		t.Errorf("query_count = %d after a query", got["query_count"])
	}

	// Memory gauges: peak bounds usage from above.
	if used, peak := got["pool_reserved_bytes"], got["pool_peak_bytes"]; used < 0 || peak < used {
		t.Errorf("memory gauges inconsistent: used=%d peak=%d", used, peak)
	}

	// Profiling readbacks.
	if r := queryAll(t, db, "PRAGMA profiling"); r[0][0] != "1" {
		t.Errorf("fresh session PRAGMA profiling = %q, want 1", r[0][0])
	}
	if r, err := conn.Query("PRAGMA profiling"); err != nil || !r.Next() || r.Value(0).String() != "1" {
		t.Errorf("PRAGMA profiling after profiling=0 does not read 1 (%v)", err)
	}
	if r := queryAll(t, db, "PRAGMA last_profile"); r[0][0] != "{}" {
		t.Errorf("fresh session PRAGMA last_profile = %q, want {}", r[0][0])
	}
}
