package quack_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/oracle"
	"repro/quack"
)

// TestBranchesRunOnlyOnTheirRows pins which rows a CASE branch and a
// filter's conjunct see. A THEN runs only on the rows its WHEN selected
// and ELSE on the rest; a filter's AND runs its right side only on the
// rows its left kept. Each query below fails if a branch or conjunct
// runs on a row outside its own (10 % 0, CAST('a' AS BIGINT)). The row
// engine skips the same sides, so it agrees value for value.
func TestBranchesRunOnlyOnTheirRows(t *testing.T) {
	const rows = 3000 // three segments, so four workers share them
	queries := []string{
		"SELECT CASE WHEN x = 0 THEN -1 ELSE 10 % x END FROM c",
		"SELECT CASE WHEN s = '7' THEN CAST(s AS BIGINT) ELSE 0 END FROM c",
		"SELECT x FROM c WHERE s = '7' AND CAST(s AS BIGINT) = 7",
	}
	want := make([][]string, len(queries))
	for i := 0; i < rows; i++ {
		x, s := int64(i%5), "a"
		if i%3 == 0 {
			s = "7"
		}
		if x == 0 {
			want[0] = append(want[0], "-1")
		} else {
			want[0] = append(want[0], strconv.FormatInt(10%x, 10))
		}
		if s == "7" {
			want[1] = append(want[1], "7")
			want[2] = append(want[2], strconv.FormatInt(x, 10))
		} else {
			want[1] = append(want[1], "0")
		}
	}
	for _, threads := range []int{1, 2, 4} {
		db, err := quack.Open(":memory:", quack.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		mustExec(t, db, "CREATE TABLE c (x BIGINT, s VARCHAR)")
		app, err := db.Appender("c")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			s := "a"
			if i%3 == 0 {
				s = "7"
			}
			if err := app.AppendRow(int64(i%5), s); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			got := queryAll(t, db, q)
			var col []string
			for _, r := range got {
				col = append(col, r[0])
			}
			if fmt.Sprint(col) != fmt.Sprint(want[qi]) {
				t.Fatalf("threads=%d %q: got %d rows %.80v, want %d rows %.80v", threads, q, len(col), col, len(want[qi]), want[qi])
			}
			ref, err := oracle.Query(db.Internal(), q)
			if err != nil {
				t.Fatalf("row engine %q: %v", q, err)
			}
			for i, r := range ref {
				if r[0].String() != col[i] {
					t.Fatalf("threads=%d %q row %d: got %s, row engine %s", threads, q, i, col[i], r[0])
				}
			}
		}
	}
}
