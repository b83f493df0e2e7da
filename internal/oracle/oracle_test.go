package oracle

import (
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/table"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// testDB is the smallest DB the oracle runs on: a catalog and its
// transaction manager.
type testDB struct {
	cat  *catalog.Catalog
	txns *txn.Manager
}

func (d *testDB) Catalog() *catalog.Catalog { return d.cat }
func (d *testDB) Txns() *txn.Manager        { return d.txns }

// fixture holds the hand-sized tables every expectation below is
// computed from:
//
//	l(k, v):    (1,a) (2,b) (NULL,n) (2,c)
//	r(k, w):    (2,20) (NULL,99) (3,30) (2,21)
//	s(g, o, x): (a,1,10) (a,2,20) (a,2,30) (b,5,7) (a,4,40)
//	d(g, x):    (1,5) (1,5) (1,7) (2,NULL) (2,3) (2,3) (1,NULL)
//	f(x, n):    (-0.0,1) (0.0,2) (NaN,3) (1.5,4) (NaN payload,5) (NULL,6)
func fixture(t *testing.T) *testDB {
	t.Helper()
	db := &testDB{cat: catalog.New(), txns: txn.NewManager(nil)}
	null := func(typ types.Type) types.Value { return types.NewNull(typ) }
	i64, str, f64 := types.NewBigInt, types.NewVarchar, types.NewDouble
	mk := func(name string, cols []catalog.Column, rows ...[]types.Value) {
		entry := &catalog.Table{Name: name, Columns: cols}
		entry.Data = table.New(entry.Types(), nil)
		c := vector.NewChunk(entry.Types())
		for _, row := range rows {
			c.AppendRow(row...)
		}
		tx := db.txns.Begin()
		if err := entry.Data.Append(tx, c); err != nil {
			t.Fatal(err)
		}
		if _, err := db.txns.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if err := db.cat.CreateTable(entry); err != nil {
			t.Fatal(err)
		}
	}
	col := func(name string, typ types.Type) catalog.Column { return catalog.Column{Name: name, Type: typ} }
	mk("l", []catalog.Column{col("k", types.BigInt), col("v", types.Varchar)},
		[]types.Value{i64(1), str("a")}, []types.Value{i64(2), str("b")},
		[]types.Value{null(types.BigInt), str("n")}, []types.Value{i64(2), str("c")})
	mk("r", []catalog.Column{col("k", types.BigInt), col("w", types.BigInt)},
		[]types.Value{i64(2), i64(20)}, []types.Value{null(types.BigInt), i64(99)},
		[]types.Value{i64(3), i64(30)}, []types.Value{i64(2), i64(21)})
	mk("s", []catalog.Column{col("g", types.Varchar), col("o", types.BigInt), col("x", types.BigInt)},
		[]types.Value{str("a"), i64(1), i64(10)}, []types.Value{str("a"), i64(2), i64(20)},
		[]types.Value{str("a"), i64(2), i64(30)}, []types.Value{str("b"), i64(5), i64(7)},
		[]types.Value{str("a"), i64(4), i64(40)})
	mk("d", []catalog.Column{col("g", types.BigInt), col("x", types.BigInt)},
		[]types.Value{i64(1), i64(5)}, []types.Value{i64(1), i64(5)}, []types.Value{i64(1), i64(7)},
		[]types.Value{i64(2), null(types.BigInt)}, []types.Value{i64(2), i64(3)}, []types.Value{i64(2), i64(3)},
		[]types.Value{i64(1), null(types.BigInt)})
	mk("f", []catalog.Column{col("x", types.Double), col("n", types.BigInt)},
		[]types.Value{f64(math.Copysign(0, -1)), i64(1)}, []types.Value{f64(0), i64(2)},
		[]types.Value{f64(math.NaN()), i64(3)}, []types.Value{f64(1.5), i64(4)},
		[]types.Value{f64(math.Float64frombits(0x7ff8000000000dea)), i64(5)}, []types.Value{null(types.Double), i64(6)})
	return db
}

// render joins each row's cells with "|".
func render(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for c, v := range row {
			cells[c] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

// TestOracleHandComputed pins the row engine to results worked out by
// hand, so a bug it shares with the vectorized engine cannot hide behind
// a differential test. Rows are compared in order: joins emit probe
// order then build order (a LEFT join pads a partnerless probe row in
// place), windows (partition, order, input position), aggregations
// first-seen group order.
func TestOracleHandComputed(t *testing.T) {
	db := fixture(t)
	cases := []struct {
		name, sql string
		want      []string
	}{
		{"inner", "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k",
			[]string{"b|20", "b|21", "c|20", "c|21"}},
		{"left", "SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k",
			[]string{"a|NULL", "b|20", "b|21", "n|NULL", "c|20", "c|21"}},
		{"cross", "SELECT l.v, r.w FROM l CROSS JOIN r WHERE r.w > 25",
			[]string{"a|99", "a|30", "b|99", "b|30", "n|99", "n|30", "c|99", "c|30"}},
		{"nonequi", "SELECT l.v, r.w FROM l JOIN r ON l.k < r.k",
			[]string{"a|20", "a|30", "a|21", "b|30", "c|30"}},
		{"left_nonequi", "SELECT l.v, r.w FROM l LEFT JOIN r ON l.k > r.k",
			[]string{"a|NULL", "b|NULL", "n|NULL", "c|NULL"}},
		{"ranking", "SELECT g, x, row_number() OVER (PARTITION BY g ORDER BY o), rank() OVER (PARTITION BY g ORDER BY o), dense_rank() OVER (PARTITION BY g ORDER BY o) FROM s",
			[]string{"a|10|1|1|1", "a|20|2|2|2", "a|30|3|2|2", "a|40|4|4|3", "b|7|1|1|1"}},
		{"lag_lead", "SELECT x, lag(x) OVER (PARTITION BY g ORDER BY o), lead(x) OVER (PARTITION BY g ORDER BY o), lag(x, 2, -1) OVER (PARTITION BY g ORDER BY o) FROM s",
			[]string{"10|NULL|20|-1", "20|10|30|-1", "30|20|40|10", "40|30|NULL|20", "7|NULL|NULL|-1"}},
		{"rows_frame", "SELECT x, sum(x) OVER (ORDER BY o, x ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING), count(*) OVER (ORDER BY o, x ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM s",
			[]string{"10|30|2", "20|60|3", "30|90|3", "40|77|3", "7|47|2"}},
		{"huge_frame_offsets", "SELECT x, sum(x) OVER (ORDER BY o, x ROWS BETWEEN CURRENT ROW AND 9223372036854775807 FOLLOWING), sum(x) OVER (ORDER BY o, x ROWS BETWEEN 9223372036854775807 PRECEDING AND 9223372036854775807 FOLLOWING) FROM s",
			[]string{"10|107|107", "20|97|107", "30|77|107", "40|47|107", "7|7|107"}},
		{"distinct", "SELECT g, count(DISTINCT x), sum(DISTINCT x), count(x), sum(x) FROM d GROUP BY g",
			[]string{"1|2|12|3|17", "2|1|3|2|6"}},
		{"float_keys", "SELECT x, count(*), sum(n) FROM f GROUP BY x",
			[]string{"0|2|3", "NaN|2|8", "1.5|1|4", "NULL|1|6"}},
	}
	for _, tc := range cases {
		rows, err := Query(db, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := render(rows); strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s: %s\n got %q\nwant %q", tc.name, tc.sql, got, tc.want)
		}
	}

	// −0.0 and +0.0 are one group keyed +0.0; both NaNs one group.
	rows, err := Query(db, "SELECT x FROM f GROUP BY x")
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(rows[0][0].F64); bits != 0 {
		t.Errorf("the zero group's key has bits %#x, want +0.0", bits)
	}
	if bits := math.Float64bits(rows[1][0].F64); bits != types.CanonF64Bits(math.NaN()) {
		t.Errorf("the NaN group's key has bits %#x, want the canonical NaN", bits)
	}
}
