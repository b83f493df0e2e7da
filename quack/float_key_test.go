package quack_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/oracle"
	"repro/quack"
)

// TestFloatKeyEqualityAgrees: every operator that keys on a DOUBLE must
// draw the same equality classes as the comparison operators do
// (types.CompareFloat): -0 equals +0 and any NaN equals any NaN. Before
// the key bytes were canonicalized, GROUP BY, count(DISTINCT) and the
// hash join hashed the raw bits — (0.0, -0.0, 0.0) made two groups and
// joined two rows while `WHERE x = 0.0` matched three.
func TestFloatKeyEqualityAgrees(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanA, nanB := math.NaN(), math.Float64frombits(0x7ff8000000000dea)
	for _, threads := range []int{1, 4} {
		db, err := quack.Open(":memory:", quack.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		mustExec(t, db, "CREATE TABLE z (id BIGINT, x DOUBLE)")
		mustExec(t, db, "CREATE TABLE y (x DOUBLE, tag VARCHAR)")
		app, err := db.Appender("z")
		if err != nil {
			t.Fatal(err)
		}
		zs := []float64{0, negZero, 0, nanA, nanB, 1.5}
		// Several segments, so four workers each see some of every value.
		for i := 0; i < 6*2048; i++ {
			if err := app.AppendRow(int64(i), zs[i%len(zs)]); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		app, err = db.Appender("y")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			x   float64
			tag string
		}{{0, "zero"}, {nanA, "nan"}, {2.5, "other"}} {
			if err := app.AppendRow(r.x, r.tag); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		const perValue = 2048 // rows of z per entry of zs

		// The filter is the reference: CompareFloat says three of every
		// six rows are zero.
		zeros := queryAll(t, db, "SELECT count(*) FROM z WHERE x = 0.0")[0][0]
		if zeros != fmt.Sprint(3*perValue) {
			t.Fatalf("threads=%d: WHERE x = 0.0 matched %s rows, want %d", threads, zeros, 3*perValue)
		}

		groups := map[string]string{}
		for _, row := range queryAll(t, db, "SELECT x, count(*) FROM z GROUP BY x") {
			if _, dup := groups[row[0]]; dup {
				t.Fatalf("threads=%d: GROUP BY x emitted %q twice", threads, row[0])
			}
			groups[row[0]] = row[1]
		}
		want := map[string]string{"0": zeros, "NaN": fmt.Sprint(2 * perValue), "1.5": fmt.Sprint(perValue)}
		if fmt.Sprint(groups) != fmt.Sprint(want) {
			t.Errorf("threads=%d: GROUP BY x = %v, want %v", threads, groups, want)
		}
		if got := queryAll(t, db, "SELECT count(DISTINCT x), sum(DISTINCT x) FROM z WHERE x < 2.0"); got[0][0] != "2" || got[0][1] != "1.5" {
			t.Errorf("threads=%d: count/sum(DISTINCT x) over {0, -0, 1.5} = %v, want [2 1.5]", threads, got[0])
		}
		if got := queryAll(t, db, "SELECT count(DISTINCT x) FROM z"); got[0][0] != "3" {
			t.Errorf("threads=%d: count(DISTINCT x) = %s, want 3 (zero, NaN, 1.5)", threads, got[0][0])
		}
		if got := queryAll(t, db, "SELECT DISTINCT x FROM z"); len(got) != 3 {
			t.Errorf("threads=%d: SELECT DISTINCT x = %v, want 3 rows", threads, got)
		}

		// Hash join and merge join key on the same classes.
		for _, js := range []struct {
			name     string
			strategy quack.JoinStrategy
		}{{"hash", quack.JoinHash}, {"merge", quack.JoinMerge}} {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			tx.SetJoinStrategy(js.strategy)
			rows, err := tx.Query("SELECT tag, count(*) FROM z JOIN y ON z.x = y.x GROUP BY tag")
			if err != nil {
				t.Fatal(err)
			}
			joined := map[string]string{}
			for rows.Next() {
				joined[rows.Value(0).String()] = rows.Value(1).String()
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			wantJoin := map[string]string{"zero": zeros, "nan": fmt.Sprint(2 * perValue)}
			if fmt.Sprint(joined) != fmt.Sprint(wantJoin) {
				t.Errorf("threads=%d: %s join on x = %v, want %v", threads, js.name, joined, wantJoin)
			}
		}

		// The row engine draws the same classes (it is the oracle of
		// TestRowEngineDifferential).
		res, err := oracle.Query(db.Internal(), "SELECT x, count(*) FROM z GROUP BY x")
		if err != nil {
			t.Fatal(err)
		}
		rowGroups := map[string]string{}
		for _, row := range res {
			rowGroups[row[0].String()] = row[1].String()
		}
		if fmt.Sprint(rowGroups) != fmt.Sprint(want) {
			t.Errorf("threads=%d: row engine GROUP BY x = %v, want %v", threads, rowGroups, want)
		}
	}
}
