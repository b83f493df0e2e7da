package quack_test

import (
	"fmt"
	"testing"

	"repro/quack"
)

// aggSpillBudgetCase is one leg of the budgeted-aggregation fuzz: a
// byte budget plus the thread counts it can legally run at. States
// touched by a worker's in-flight morsel can never spill, so a budget
// must exceed workers x (distinct groups per morsel) x state size —
// the cases pair tiny budgets with low per-morsel cardinality and give
// the high-cardinality queries proportionally more room.
type aggSpillBudgetCase struct {
	budget  string
	threads []int
	queries []string
}

// Query palettes by per-morsel group cardinality. The fixture's id is
// append-ordered, so id - id%512 introduces ~2 groups per 1024-row
// morsel (59 total) and id - id%4 ~256 per morsel (7500 total); grp is
// duplicate-heavy (6 values + NULL) and recurs in every morsel.
var (
	aggSpillDupHeavy = []string{
		"SELECT grp, count(*), sum(price), min(price), max(qty) FROM facts GROUP BY grp",
		"SELECT grp, sum(DISTINCT qty % 3), count(DISTINCT flag) FROM facts GROUP BY grp",
		"SELECT count(*), sum(price), sum(qty) FROM facts",
		"SELECT grp, count(*) FROM facts WHERE qty IS NOT NULL GROUP BY grp",
	}
	aggSpillLowCard = []string{
		"SELECT id - id % 512, count(*), sum(price), sum(DISTINCT qty % 3) FROM facts GROUP BY 1",
		"SELECT id - id % 512, avg(price), count(qty) FROM facts GROUP BY 1",
	}
	aggSpillHighCard = []string{
		"SELECT id - id % 4, count(*), sum(price), min(qty) FROM facts GROUP BY 1",
		"SELECT id - id % 4, count(DISTINCT flag), sum(qty) FROM facts GROUP BY 1",
	}
)

var aggSpillBudgetCases = []aggSpillBudgetCase{
	// 4KB: multi-round spills over 59 groups arriving a couple per
	// morsel; duplicate-heavy queries ride along (they fit, but the
	// budget-enforced accounting and shedding paths still run).
	{"4KB", []int{1, 2}, append(append([]string{}, aggSpillDupHeavy...), aggSpillLowCard...)},
	// 16KB clears the 8-thread floor for the low-cardinality palette.
	{"16KB", []int{1, 2, 8}, append(append([]string{}, aggSpillDupHeavy...), aggSpillLowCard...)},
	// 256KB: ~2.3MB of high-cardinality state spills in many rounds.
	{"256KB", []int{1, 2}, aggSpillHighCard},
	// 2MB clears the 8-thread floor for the high-cardinality palette.
	{"2MB", []int{1, 2, 8}, aggSpillHighCard},
}

// TestAggSpillDifferentialBudgets fuzzes budgeted aggregation against
// the unlimited one-worker run: byte budgets from 4KB up (forcing
// multi-round partition spills), duplicate-heavy and NULL group keys,
// DISTINCT aggregates and DOUBLE sums, at threads 1/2/8 — results must
// be row-for-row identical, including order, and the spill counters
// must actually move.
func TestAggSpillDifferentialBudgets(t *testing.T) {
	ref := differentialDB(t, 1)
	mustExec(t, ref, "PRAGMA memory_limit=-1") // immune to QUACK_MEMORY_LIMIT
	want := map[string][][]string{}
	queries := map[string]bool{}
	for _, c := range aggSpillBudgetCases {
		for _, q := range c.queries {
			if !queries[q] {
				queries[q] = true
				want[q] = queryAll(t, ref, q)
			}
		}
	}

	db := differentialDB(t, 1)
	spillsBefore := db.Metrics()["agg_spill_partitions_total"]
	for _, c := range aggSpillBudgetCases {
		mustExec(t, db, "PRAGMA memory_limit='"+c.budget+"'")
		for _, threads := range c.threads {
			mustExec(t, db, fmt.Sprintf("PRAGMA threads=%d", threads))
			for _, q := range c.queries {
				got := queryAll(t, db, q)
				if fmt.Sprint(got) != fmt.Sprint(want[q]) {
					t.Errorf("budget=%s threads=%d query %q diverges:\n got (%d rows): %.300v\nwant (%d rows): %.300v",
						c.budget, threads, q, len(got), got, len(want[q]), want[q])
				}
			}
		}
	}
	if spills := db.Metrics()["agg_spill_partitions_total"] - spillsBefore; spills == 0 {
		t.Fatal("the budget matrix produced no partition spills; the fixture no longer exercises the spill path")
	}
	if bytes := db.Metrics()["agg_spill_bytes_total"]; bytes == 0 {
		t.Fatal("agg_spill_bytes_total still 0 after the spilling matrix")
	}
}

// TestAggSpillDifferential1MRows is the acceptance bar for the
// partitioned spilling aggregation: a GROUP BY over 1M rows with
// memory_limit set far below the ~27MB of aggregate state completes at
// threads 1/2/8 with results identical to the unlimited sequential run,
// and demonstrably spills. (That the budgeted build still fans out
// across workers is pinned white-box by TestParAggSpillUsesWorkers in
// internal/exec, via per-worker row counters as in PR 4.)
func TestAggSpillDifferential1MRows(t *testing.T) {
	const rows = 1_000_000
	db, err := quack.Open(":memory:")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "PRAGMA memory_limit=-1")
	mustExec(t, db, "CREATE TABLE big (id BIGINT, v BIGINT, price DOUBLE)")
	app, err := db.Appender("big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := app.AppendRow(int64(i), int64((i*13)%1000), float64((i*31)%997)/8); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id - id % 8, count(*), sum(v), sum(price), min(v) FROM big GROUP BY 1"

	mustExec(t, db, "PRAGMA threads=1")
	want := queryAll(t, db, q)
	if len(want) != rows/8 {
		t.Fatalf("reference run returned %d groups, want %d", len(want), rows/8)
	}

	mustExec(t, db, "PRAGMA memory_limit='8MB'")
	for _, threads := range []int{1, 2, 8} {
		mustExec(t, db, fmt.Sprintf("PRAGMA threads=%d", threads))
		before := db.Metrics()["agg_spill_partitions_total"]
		got := queryAll(t, db, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("threads=%d: budgeted 1M-row aggregation diverges from the unlimited sequential run", threads)
		}
		if db.Metrics()["agg_spill_partitions_total"] == before {
			t.Fatalf("threads=%d: 8MB budget over ~27MB of state did not spill", threads)
		}
	}
}
