package quack_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/types"
	"repro/quack"
)

// This file is the differential guarantee of the window-function
// subsystem: every window query must return bit-identical results at
// threads 1/2/8, and must agree with an independent row-at-a-time
// reference evaluator implemented here over the raw table rows.

// ---- fixture ----

const (
	wRows = 6_000 // several segments, so parallel window builds fan out
	wID   = 0
	wP    = 1
	wG    = 2
	wO    = 3
	wV    = 4
	wD    = 5
)

var wColNames = []string{"id", "p", "g", "o", "v", "d"}
var wColTypes = []types.Type{types.BigInt, types.Varchar, types.BigInt, types.Double, types.BigInt, types.Double}

// windowFixture builds the same deterministic, NULL-bearing, tie-heavy
// dataset into a database and into the reference row set (insertion
// order — the engine's hidden tiebreak order).
func windowFixtureRows() [][]types.Value {
	groups := []string{"ash", "birch", "cedar", "fir", "oak"}
	rows := make([][]types.Value, 0, wRows)
	for i := 0; i < wRows; i++ {
		row := make([]types.Value, 6)
		row[wID] = types.NewBigInt(int64(i))
		if i%13 == 0 {
			row[wP] = types.NewNull(types.Varchar)
		} else {
			row[wP] = types.NewVarchar(groups[(i*7)%len(groups)])
		}
		if i%17 == 0 {
			row[wG] = types.NewNull(types.BigInt)
		} else {
			row[wG] = types.NewBigInt(int64((i * 3) % 4))
		}
		if i%7 == 0 {
			row[wO] = types.NewNull(types.Double)
		} else {
			row[wO] = types.NewDouble(float64((i*17)%300) / 4) // heavy ties
		}
		if i%11 == 0 {
			row[wV] = types.NewNull(types.BigInt)
		} else {
			row[wV] = types.NewBigInt(int64((i*29)%1000 - 500))
		}
		if i%9 == 0 {
			row[wD] = types.NewNull(types.Double)
		} else {
			row[wD] = types.NewDouble(float64((i*31)%997)/8 - 60)
		}
		rows = append(rows, row)
	}
	return rows
}

func windowDB(t *testing.T, threads int, rows [][]types.Value) *quack.DB {
	t.Helper()
	db, err := quack.Open(":memory:", quack.WithThreads(threads))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, "CREATE TABLE w (id BIGINT, p VARCHAR, g BIGINT, o DOUBLE, v BIGINT, d DOUBLE)")
	app, err := db.Appender("w")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		vals := make([]any, len(row))
		for i, v := range row {
			if v.Null {
				vals[i] = nil
				continue
			}
			switch v.Type {
			case types.BigInt:
				vals[i] = v.I64
			case types.Double:
				vals[i] = v.F64
			case types.Varchar:
				vals[i] = v.Str
			}
		}
		if err := app.AppendRow(vals...); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	return db
}

// ---- case model ----

type refOrd struct {
	col        int
	desc       bool
	nullsFirst bool // resolved (default: NULLS LAST asc, FIRST desc)
	nullsSet   bool
}

type refBound struct {
	unbounded bool
	current   bool
	offset    int
	preceding bool
}

type refFrame struct {
	set        bool
	rows       bool
	start, end refBound
}

type refCase struct {
	fn    string // row_number, rank, dense_rank, lag, lead, count, count_star, sum, avg, min, max
	arg   int    // column index, -1 for count(*)
	off   int    // lag/lead
	def   types.Value
	part  []int
	ord   []refOrd
	frame refFrame
}

// sql renders the case as the engine's window expression.
func (c refCase) sql() string {
	var fn string
	switch c.fn {
	case "count_star":
		fn = "count(*)"
	case "row_number", "rank", "dense_rank":
		fn = c.fn + "()"
	case "lag", "lead":
		fn = fmt.Sprintf("%s(%s, %d", c.fn, wColNames[c.arg], c.off)
		if !c.def.Null {
			fn += ", " + c.def.String()
		}
		fn += ")"
	default:
		fn = fmt.Sprintf("%s(%s)", c.fn, wColNames[c.arg])
	}
	var sb strings.Builder
	sb.WriteString(fn + " OVER (")
	if len(c.part) > 0 {
		sb.WriteString("PARTITION BY ")
		for i, p := range c.part {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(wColNames[p])
		}
	}
	if len(c.ord) > 0 {
		if len(c.part) > 0 {
			sb.WriteString(" ")
		}
		sb.WriteString("ORDER BY ")
		for i, o := range c.ord {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(wColNames[o.col])
			if o.desc {
				sb.WriteString(" DESC")
			}
			if o.nullsSet {
				if o.nullsFirst {
					sb.WriteString(" NULLS FIRST")
				} else {
					sb.WriteString(" NULLS LAST")
				}
			}
		}
	}
	if c.frame.set {
		bound := func(b refBound) string {
			switch {
			case b.unbounded && b.preceding:
				return "UNBOUNDED PRECEDING"
			case b.unbounded:
				return "UNBOUNDED FOLLOWING"
			case b.current:
				return "CURRENT ROW"
			case b.preceding:
				return fmt.Sprintf("%d PRECEDING", b.offset)
			default:
				return fmt.Sprintf("%d FOLLOWING", b.offset)
			}
		}
		kind := "RANGE"
		if c.frame.rows {
			kind = "ROWS"
		}
		sb.WriteString(fmt.Sprintf(" %s BETWEEN %s AND %s", kind, bound(c.frame.start), bound(c.frame.end)))
	}
	sb.WriteString(")")
	return sb.String()
}

// ---- reference evaluation ----

func refCompare(a, b types.Value) int {
	return types.Compare(a, b)
}

// refOrderLess orders partition rows by the case's keys; ties keep
// insertion order via stable sort (the engine's hidden tiebreak).
func refOrderLess(rows [][]types.Value, ord []refOrd) func(i, j int) bool {
	return func(i, j int) bool {
		for _, k := range ord {
			a, b := rows[i][k.col], rows[j][k.col]
			if a.Null || b.Null {
				if a.Null && b.Null {
					continue
				}
				return a.Null == k.nullsFirst
			}
			c := refCompare(a, b)
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
}

func refOrdEqual(a, b []types.Value, ord []refOrd) bool {
	for _, k := range ord {
		va, vb := a[k.col], b[k.col]
		if va.Null != vb.Null {
			return false
		}
		if !va.Null && refCompare(va, vb) != 0 {
			return false
		}
	}
	return true
}

// evalRef computes the expected value of the case for every row id.
func evalRef(t *testing.T, rows [][]types.Value, c refCase) map[int64]types.Value {
	t.Helper()
	// Partition the insertion-ordered rows.
	parts := make(map[string][]int)
	var partOrder []string
	for i, row := range rows {
		var key strings.Builder
		for _, p := range c.part {
			v := row[p]
			switch {
			case v.Null:
				key.WriteString("\x00N")
			case v.Type == types.Double: // -0 = +0, every NaN one key
				fmt.Fprintf(&key, "\x01%x\x00", types.CanonF64Bits(v.F64))
			default:
				key.WriteString("\x01" + v.String() + "\x00")
			}
		}
		k := key.String()
		if _, ok := parts[k]; !ok {
			partOrder = append(partOrder, k)
		}
		parts[k] = append(parts[k], i)
	}
	out := make(map[int64]types.Value, len(rows))
	for _, pk := range partOrder {
		idxs := append([]int(nil), parts[pk]...)
		sort.SliceStable(idxs, func(a, b int) bool {
			return refOrderLess(rows, c.ord)(idxs[a], idxs[b])
		})
		n := len(idxs)
		// Peer groups over the order keys.
		peerStart := make([]int, n)
		peerEnd := make([]int, n)
		dense := make([]int64, n)
		gs, rk := 0, int64(1)
		for i := 0; i < n; i++ {
			if i > 0 && !refOrdEqual(rows[idxs[i-1]], rows[idxs[i]], c.ord) {
				for k := gs; k < i; k++ {
					peerEnd[k] = i - 1
				}
				gs = i
				rk++
			}
			peerStart[i] = gs
			dense[i] = rk
		}
		for k := gs; k < n; k++ {
			peerEnd[k] = n - 1
		}
		for i := 0; i < n; i++ {
			id := rows[idxs[i]][wID].I64
			switch c.fn {
			case "row_number":
				out[id] = types.NewBigInt(int64(i) + 1)
			case "rank":
				out[id] = types.NewBigInt(int64(peerStart[i]) + 1)
			case "dense_rank":
				out[id] = types.NewBigInt(dense[i])
			case "lag", "lead":
				j := i + c.off
				if c.fn == "lag" {
					j = i - c.off
				}
				if j < 0 || j >= n {
					def := c.def
					if def.Null {
						def = types.NewNull(wColTypes[c.arg])
					} else {
						cv, err := def.Cast(wColTypes[c.arg])
						if err != nil {
							t.Fatalf("default cast: %v", err)
						}
						def = cv
					}
					out[id] = def
				} else {
					out[id] = rows[idxs[j]][c.arg]
				}
			default:
				lo, hi := refFrameBounds(c, i, n, peerStart, peerEnd)
				out[id] = refAgg(c, rows, idxs, lo, hi)
			}
		}
	}
	return out
}

func refFrameBounds(c refCase, i, n int, peerStart, peerEnd []int) (int, int) {
	if !c.frame.set {
		if len(c.ord) == 0 {
			return 0, n - 1
		}
		return 0, peerEnd[i]
	}
	resolve := func(b refBound, start bool) int {
		switch {
		case b.unbounded && b.preceding:
			return 0
		case b.unbounded:
			return n - 1
		case b.current:
			if c.frame.rows {
				return i
			}
			if start {
				return peerStart[i]
			}
			return peerEnd[i]
		case b.preceding:
			return i - b.offset
		default:
			return i + b.offset
		}
	}
	lo, hi := resolve(c.frame.start, true), resolve(c.frame.end, false)
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi
}

// refAgg folds the frame rows left-to-right, mirroring SQL aggregate
// semantics (NULLs skipped; empty frames yield NULL, count 0).
func refAgg(c refCase, rows [][]types.Value, idxs []int, lo, hi int) types.Value {
	if c.fn == "count_star" {
		if lo > hi {
			return types.NewBigInt(0)
		}
		return types.NewBigInt(int64(hi - lo + 1))
	}
	argT := wColTypes[c.arg]
	var (
		count   int64
		sumI    int64
		sumF    float64
		best    types.Value
		bestSet bool
	)
	for r := lo; r <= hi; r++ {
		v := rows[idxs[r]][c.arg]
		if v.Null {
			continue
		}
		count++
		switch c.fn {
		case "sum", "avg":
			if argT == types.Double {
				sumF += v.F64
			} else {
				sumI += v.I64
			}
		case "min", "max":
			if !bestSet {
				best, bestSet = v, true
			} else if cv := refCompare(v, best); (c.fn == "max" && cv > 0) || (c.fn == "min" && cv < 0) {
				best = v
			}
		}
	}
	switch c.fn {
	case "count":
		return types.NewBigInt(count)
	case "sum":
		if count == 0 {
			return types.NewNull(argT)
		}
		if argT == types.Double {
			return types.NewDouble(sumF)
		}
		return types.NewBigInt(sumI)
	case "avg":
		if count == 0 {
			return types.NewNull(types.Double)
		}
		if argT == types.Double {
			return types.NewDouble(sumF / float64(count))
		}
		return types.NewDouble(float64(sumI) / float64(count))
	default: // min, max
		if !bestSet {
			return types.NewNull(argT)
		}
		return best
	}
}

// ---- the differential tests ----

func fixedWindowCases() []refCase {
	ordO := []refOrd{{col: wO}}
	ordOID := []refOrd{{col: wO}, {col: wID}}
	partP := []int{wP}
	return []refCase{
		{fn: "row_number", arg: -1, part: partP, ord: ordO},
		{fn: "rank", arg: -1, part: partP, ord: ordO},
		{fn: "dense_rank", arg: -1, part: partP, ord: []refOrd{{col: wO, desc: true, nullsFirst: false, nullsSet: true}}},
		{fn: "sum", arg: wV, part: partP, ord: ordO},
		{fn: "sum", arg: wD, part: partP, ord: ordOID},
		{fn: "sum", arg: wV, part: partP}, // whole partition
		{fn: "count_star", arg: -1, part: partP},
		{fn: "count", arg: wV, part: partP, ord: ordO},
		{fn: "avg", arg: wD, part: partP, ord: ordOID,
			frame: refFrame{set: true, rows: true, start: refBound{offset: 3, preceding: true}, end: refBound{current: true}}},
		{fn: "min", arg: wO, part: partP, ord: []refOrd{{col: wID}},
			frame: refFrame{set: true, rows: true, start: refBound{offset: 2, preceding: true}, end: refBound{offset: 2}}},
		{fn: "max", arg: wV, ord: ordOID}, // no partition
		{fn: "sum", arg: wD},              // no partition, no order: grand total
		{fn: "lag", arg: wV, off: 1, def: types.NewNull(types.BigInt), part: partP, ord: ordOID},
		{fn: "lead", arg: wO, off: 2, def: types.NewDouble(-1), part: partP, ord: []refOrd{{col: wID}}},
		{fn: "sum", arg: wV, part: partP, ord: ordOID,
			frame: refFrame{set: true, rows: true, start: refBound{current: true}, end: refBound{unbounded: true}}},
		{fn: "sum", arg: wD, part: partP, ord: ordOID,
			frame: refFrame{set: true, rows: true, start: refBound{offset: 5, preceding: true}, end: refBound{offset: 2, preceding: true}}},
		{fn: "avg", arg: wV, part: partP, ord: ordOID,
			frame: refFrame{set: true, start: refBound{unbounded: true, preceding: true}, end: refBound{current: true}}}, // RANGE
		{fn: "count", arg: wD, part: []int{wP, wG}, ord: ordOID,
			frame: refFrame{set: true, rows: true, start: refBound{unbounded: true, preceding: true}, end: refBound{offset: 1}}},
	}
}

func randomWindowCases(rng *rand.Rand, n int) []refCase {
	fns := []string{"row_number", "rank", "dense_rank", "lag", "lead", "count", "count_star", "sum", "avg", "min", "max"}
	argCols := []int{wO, wV, wD}
	parts := [][]int{nil, {wP}, {wG}, {wP, wG}}
	var out []refCase
	for len(out) < n {
		c := refCase{fn: fns[rng.Intn(len(fns))], arg: -1}
		switch c.fn {
		case "lag", "lead":
			c.arg = argCols[rng.Intn(len(argCols))]
			c.off = rng.Intn(4)
			if rng.Intn(2) == 0 {
				c.def = types.NewBigInt(int64(rng.Intn(100) - 50))
			} else {
				c.def = types.NewNull(types.BigInt)
			}
		case "count", "sum", "avg", "min", "max":
			c.arg = argCols[rng.Intn(len(argCols))]
		}
		c.part = parts[rng.Intn(len(parts))]
		// Order keys: always end with id for a total order half the
		// time; ties otherwise exercise the peer/tiebreak machinery.
		nOrd := rng.Intn(3)
		used := map[int]bool{}
		for k := 0; k < nOrd; k++ {
			col := []int{wO, wV, wD, wID}[rng.Intn(4)]
			if used[col] {
				continue
			}
			used[col] = true
			o := refOrd{col: col, desc: rng.Intn(2) == 0}
			o.nullsFirst = o.desc
			if rng.Intn(3) == 0 {
				o.nullsSet = true
				o.nullsFirst = rng.Intn(2) == 0
			}
			c.ord = append(c.ord, o)
		}
		// Random ROWS frame for aggregates with ORDER BY.
		if len(c.ord) > 0 && rng.Intn(2) == 0 {
			switch c.fn {
			case "count", "count_star", "sum", "avg", "min", "max":
				f := refFrame{set: true, rows: true}
				switch rng.Intn(3) {
				case 0:
					f.start = refBound{unbounded: true, preceding: true}
				case 1:
					f.start = refBound{offset: rng.Intn(6), preceding: true}
				default:
					f.start = refBound{current: true}
				}
				switch rng.Intn(3) {
				case 0:
					f.end = refBound{unbounded: true}
				case 1:
					f.end = refBound{offset: rng.Intn(6)}
				default:
					f.end = refBound{current: true}
				}
				c.frame = f
			}
		}
		out = append(out, c)
	}
	return out
}

// TestWindowDifferentialFuzz: every case must match the reference
// evaluator AND be bit-identical across thread counts. Runs as part of
// the CI differential matrix (QUACK_THREADS legs included via the
// default-threads database).
func TestWindowDifferentialFuzz(t *testing.T) {
	rows := windowFixtureRows()
	dbs := map[string]*quack.DB{
		"t1": windowDB(t, 1, rows),
		"t2": windowDB(t, 2, rows),
		"t8": windowDB(t, 8, rows),
	}
	cases := fixedWindowCases()
	cases = append(cases, randomWindowCases(rand.New(rand.NewSource(20260729)), fuzzIters(25))...)
	for ci, c := range cases {
		expr := c.sql()
		q := "SELECT id, " + expr + " FROM w ORDER BY id"
		want := evalRef(t, rows, c)
		var baseline [][]string
		for name, db := range dbs {
			got := queryAll(t, db, q)
			if len(got) != len(rows) {
				t.Fatalf("case %d %s [%s]: %d rows, want %d", ci, expr, name, len(got), len(rows))
			}
			mismatches := 0
			for _, row := range got {
				var id int64
				fmt.Sscan(row[0], &id)
				if exp := want[id].String(); row[1] != exp {
					if mismatches < 5 {
						t.Errorf("case %d %s [%s] id=%d: got %q, want %q", ci, expr, name, id, row[1], exp)
					}
					mismatches++
				}
			}
			if mismatches > 0 {
				t.Fatalf("case %d %s [%s]: %d mismatches vs reference", ci, expr, name, mismatches)
			}
			if baseline == nil {
				baseline = got
			} else if fmt.Sprint(got) != fmt.Sprint(baseline) {
				t.Fatalf("case %d %s [%s]: diverges across thread counts", ci, expr, name)
			}
		}
	}
}

// streamFixtureRows is the second fixture, shaped for the places a
// streaming window can break. Partitioned by o (DOUBLE), sorted NULLs
// first: the NULL partition is rows [0, 1024) and the ±0.0 partition
// rows [1024, 3072), so both start and end on a merged-chunk boundary;
// -0.0 and +0.0 share a partition, and so do two NaN payloads. Ordered
// by d within o = 1.5, one peer group (d = 7) spans about 3,400 rows,
// more than three merged chunks. d also holds ±0.0 and both NaN payloads. The
// rows are inserted shuffled, so the sort has work to do.
func streamFixtureRows() [][]types.Value {
	nanA, nanB := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000abc)
	type part struct {
		o    types.Value
		rows int
	}
	parts := []part{
		{types.NewNull(types.Double), 1024}, {types.NewDouble(0), 2048}, {types.NewDouble(1.5), 3500},
		{types.NewDouble(nanA), 700}, {types.NewDouble(2.5), 5},
	}
	var okeys []types.Value
	for _, p := range parts {
		for i := 0; i < p.rows; i++ {
			o := p.o
			if !o.Null && o.F64 == 0 && i%2 == 1 {
				o = types.NewDouble(math.Copysign(0, -1))
			}
			if !o.Null && o.F64 != o.F64 && i%2 == 1 {
				o = types.NewDouble(nanB)
			}
			okeys = append(okeys, o)
		}
	}
	rng := rand.New(rand.NewSource(26))
	rng.Shuffle(len(okeys), func(i, j int) { okeys[i], okeys[j] = okeys[j], okeys[i] })
	ds := []types.Value{types.NewDouble(0), types.NewDouble(math.Copysign(0, -1)), types.NewDouble(nanA),
		types.NewDouble(nanB), types.NewNull(types.Double), types.NewDouble(-2.25), types.NewDouble(3.5)}
	groups := []string{"ash", "birch", "cedar"}
	rows := make([][]types.Value, len(okeys))
	for i, o := range okeys {
		row := make([]types.Value, 6)
		row[wID] = types.NewBigInt(int64(i))
		row[wP] = types.NewVarchar(groups[i%len(groups)])
		row[wG] = types.NewBigInt(int64(i % 4))
		row[wO] = o
		if !o.Null && o.F64 == 1.5 && rng.Intn(35) != 0 {
			row[wD] = types.NewDouble(7)
		} else {
			row[wD] = ds[rng.Intn(len(ds))]
		}
		if i%11 == 0 {
			row[wV] = types.NewNull(types.BigInt)
		} else {
			row[wV] = types.NewBigInt(int64((i*29)%1000 - 500))
		}
		rows[i] = row
	}
	return rows
}

// TestWindowDifferentialStream runs the streaming window's edge cases
// over streamFixtureRows — peer groups and partitions longer than a
// merged chunk, partitions cut exactly at a chunk boundary, lag/lead
// reaching 1,500 rows and frames 1,100 rows wide, DOUBLE keys holding
// ±0.0 and NaN payloads — against the reference evaluator and the
// row-engine oracle at threads 1, 2 and 8.
func TestWindowDifferentialStream(t *testing.T) {
	rows := streamFixtureRows()
	dbs := []*quack.DB{windowDB(t, 1, rows), windowDB(t, 2, rows), windowDB(t, 8, rows)}
	partO := []int{wO}
	ordD := []refOrd{{col: wD}}
	ordDID := []refOrd{{col: wD}, {col: wID}}
	wide := refFrame{set: true, rows: true, start: refBound{offset: 1100, preceding: true}, end: refBound{offset: 1100}}
	cases := []refCase{
		{fn: "row_number", arg: -1, part: partO, ord: ordD},
		{fn: "rank", arg: -1, part: partO, ord: ordD},
		{fn: "dense_rank", arg: -1, part: partO, ord: []refOrd{{col: wD, desc: true, nullsFirst: true}}},
		{fn: "sum", arg: wV, part: partO, ord: ordD},
		{fn: "sum", arg: wD, part: partO, ord: ordD},
		{fn: "count", arg: wD, part: partO, ord: ordD,
			frame: refFrame{set: true, start: refBound{current: true}, end: refBound{current: true}}},
		{fn: "avg", arg: wV, part: partO, ord: ordD,
			frame: refFrame{set: true, start: refBound{current: true}, end: refBound{unbounded: true}}},
		{fn: "count_star", arg: -1, part: partO},
		{fn: "lag", arg: wV, off: 1500, def: types.NewNull(types.BigInt), part: partO, ord: ordDID},
		{fn: "lead", arg: wV, off: 1500, def: types.NewBigInt(-1), part: partO, ord: ordDID},
		{fn: "lead", arg: wD, off: 1500, def: types.NewNull(types.BigInt), part: partO, ord: ordDID},
		{fn: "sum", arg: wV, part: partO, ord: ordDID, frame: wide},
		{fn: "sum", arg: wD, part: partO, ord: ordDID, frame: wide},
		{fn: "min", arg: wD, part: partO, ord: ordDID, frame: wide},
		{fn: "max", arg: wD, part: partO, ord: ordDID, frame: wide},
		{fn: "max", arg: wV, part: []int{wO, wP}, ord: ordDID,
			frame: refFrame{set: true, rows: true, start: refBound{unbounded: true, preceding: true}, end: refBound{offset: 1100}}},
		{fn: "count", arg: wV, part: partO, ord: ordDID,
			frame: refFrame{set: true, rows: true, start: refBound{offset: 1500, preceding: true}, end: refBound{offset: 1100, preceding: true}}},
		{fn: "sum", arg: wV, ord: []refOrd{{col: wO}, {col: wD}}},
		{fn: "min", arg: wD, part: []int{wD}},
	}
	for ci, c := range cases {
		expr := c.sql()
		q := "SELECT id, " + expr + " FROM w ORDER BY id"
		want := evalRef(t, rows, c)
		oracleRows, err := oracle.Query(dbs[0].Internal(), q)
		if err != nil {
			t.Fatalf("case %d %s: row engine: %v", ci, expr, err)
		}
		for _, row := range oracleRows {
			if got, exp := row[1].String(), want[row[0].I64].String(); got != exp {
				t.Fatalf("case %d %s id=%d: row engine %q, reference %q", ci, expr, row[0].I64, got, exp)
			}
		}
		for di, db := range dbs {
			got := queryAll(t, db, q)
			if len(got) != len(rows) {
				t.Fatalf("case %d %s [db %d]: %d rows, want %d", ci, expr, di, len(got), len(rows))
			}
			for _, row := range got {
				var id int64
				fmt.Sscan(row[0], &id)
				if exp := want[id].String(); row[1] != exp {
					t.Fatalf("case %d %s [db %d] id=%d: got %q, want %q", ci, expr, di, id, row[1], exp)
				}
			}
		}
	}
}

// TestWindowDifferentialOrder: without an outer ORDER BY the engine
// emits (partition, order, input position) order — which must be
// bit-identical, including row order, at every thread count.
func TestWindowDifferentialOrder(t *testing.T) {
	rows := windowFixtureRows()
	seq := windowDB(t, 1, rows)
	queries := []string{
		"SELECT p, o, row_number() OVER (PARTITION BY p ORDER BY o) FROM w",
		"SELECT id, sum(v) OVER (PARTITION BY g ORDER BY o, id) FROM w",
		"SELECT id, rank() OVER (ORDER BY d DESC) FROM w WHERE v > 0",
		"SELECT p, count(*) OVER (PARTITION BY p) FROM w WHERE o IS NOT NULL",
		// Window over an aggregate (breaker below the window).
		"SELECT p, rank() OVER (ORDER BY count(*) DESC, p) FROM w GROUP BY p",
		// Projection above the window runs as a stage of its source.
		"SELECT id * 2, row_number() OVER (PARTITION BY p ORDER BY o, id) + 10 FROM w",
		// Window feeding an outer sort on the window column.
		"SELECT id, dense_rank() OVER (PARTITION BY g ORDER BY v DESC) AS dr FROM w ORDER BY dr, id LIMIT 500",
	}
	for _, threads := range []int{2, 8} {
		par := windowDB(t, threads, rows)
		for _, q := range queries {
			want := queryAll(t, seq, q)
			got := queryAll(t, par, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("threads=%d query %q diverges:\n got (%d rows): %.400v\nwant (%d rows): %.400v",
					threads, q, len(got), got, len(want), want)
			}
		}
	}
}

// TestWindowDifferentialDefaultThreads runs the acceptance query on a
// database with the engine-wide default thread count (QUACK_THREADS in
// the CI matrix) against the single-threaded baseline.
func TestWindowDifferentialDefaultThreads(t *testing.T) {
	rows := windowFixtureRows()
	seq := windowDB(t, 1, rows)
	def := func() *quack.DB {
		db, err := quack.Open(":memory:")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		mustExec(t, db, "CREATE TABLE w (id BIGINT, p VARCHAR, g BIGINT, o DOUBLE, v BIGINT, d DOUBLE)")
		app, _ := db.Appender("w")
		for _, row := range rows {
			vals := make([]any, len(row))
			for i, v := range row {
				if !v.Null {
					switch v.Type {
					case types.BigInt:
						vals[i] = v.I64
					case types.Double:
						vals[i] = v.F64
					case types.Varchar:
						vals[i] = v.Str
					}
				}
			}
			if err := app.AppendRow(vals...); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		return db
	}()
	q := "SELECT id, row_number() OVER (PARTITION BY p ORDER BY o), sum(v) OVER (PARTITION BY p ORDER BY o) FROM w"
	want := queryAll(t, seq, q)
	got := queryAll(t, def, q)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("default-thread window query diverges:\n got: %.400v\nwant: %.400v", got, want)
	}
}

// TestWindowRowEngineDifferential: the tuple-at-a-time row engine (the
// E6 ablation baseline) must agree with the vectorized engine on window
// queries — values AND row order — so the ablation can run the window
// workloads instead of erroring on WindowNode.
func TestWindowRowEngineDifferential(t *testing.T) {
	rows := windowFixtureRows()
	db := windowDB(t, 1, rows)
	queries := []string{
		"SELECT id, row_number() OVER (PARTITION BY p ORDER BY o) FROM w",
		"SELECT id, rank() OVER (PARTITION BY g ORDER BY o DESC NULLS LAST), dense_rank() OVER (PARTITION BY g ORDER BY o DESC NULLS LAST) FROM w",
		"SELECT id, sum(d) OVER (PARTITION BY p ORDER BY o, id) FROM w",
		"SELECT id, avg(v) OVER (PARTITION BY p ORDER BY o, id ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM w",
		"SELECT id, lag(v, 2, -1) OVER (PARTITION BY p ORDER BY o, id), lead(o) OVER (PARTITION BY p ORDER BY o, id) FROM w",
		"SELECT id, count(*) OVER (PARTITION BY p), min(o) OVER (PARTITION BY p), max(d) OVER (PARTITION BY p) FROM w",
		"SELECT id, sum(v) OVER (ORDER BY o, id) FROM w WHERE v IS NOT NULL ORDER BY id LIMIT 800",
	}
	for _, q := range queries {
		want := queryAll(t, db, q)
		got, err := oracle.Query(db.Internal(), q)
		if err != nil {
			t.Fatalf("row engine %q: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("row engine %q: %d rows, want %d", q, len(got), len(want))
		}
		for i, row := range got {
			if len(row) != len(want[i]) {
				t.Fatalf("row engine %q row %d: %d cols, want %d", q, i, len(row), len(want[i]))
			}
			for c, v := range row {
				if v.String() != want[i][c] {
					t.Fatalf("row engine %q row %d col %d: got %q, want %q", q, i, c, v.String(), want[i][c])
				}
			}
		}
	}
}
