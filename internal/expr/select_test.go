package expr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// The chunks these tests build have two columns of each comparable
// type, column i and i+6 alike; constants are drawn from the same pools
// as the values, so equality hits.
var selTypes = []types.Type{types.BigInt, types.Integer, types.Double, types.Varchar, types.Boolean, types.Timestamp,
	types.BigInt, types.Integer, types.Double, types.Varchar, types.Boolean, types.Timestamp}

var (
	poolI64 = []int64{0, 1, -1, 7, 42, math.MinInt64, math.MaxInt64}
	poolI32 = []int64{0, 1, -1, 7, math.MinInt32, math.MaxInt32}
	poolF64 = []float64{0, math.Copysign(0, -1), 1.5, -2, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001)}
	poolStr  = []string{"", "a", "ab", "b", "\x00", "a\x00", "\xff", "a\xff", "emea"}
	poolLike = []string{"a%", "%b", "%a%", "a_", "", "%", "_", "\x00%", "a", "%\xff", "a%b%"}
)

// picker draws choices from fuzz bytes, or from a PRNG when rng is set.
type picker struct {
	data []byte
	rng  *rand.Rand
}

func (p *picker) intn(n int) int {
	if p.rng != nil {
		return p.rng.Intn(n)
	}
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return int(b) % n
}

// value draws a value of type t, NULL one time in six.
func (p *picker) value(t types.Type) types.Value {
	if p.intn(6) == 0 {
		return types.NewNull(t)
	}
	switch t {
	case types.BigInt:
		return types.NewBigInt(poolI64[p.intn(len(poolI64))])
	case types.Timestamp:
		return types.NewTimestamp(poolI64[p.intn(len(poolI64))])
	case types.Integer:
		return types.NewInt(int32(poolI32[p.intn(len(poolI32))]))
	case types.Double:
		return types.NewDouble(poolF64[p.intn(len(poolF64))])
	case types.Varchar:
		return types.NewVarchar(poolStr[p.intn(len(poolStr))])
	default:
		return types.NewBool(p.intn(2) == 0)
	}
}

func (p *picker) chunk(n int) *vector.Chunk {
	c := vector.NewChunk(selTypes)
	for r := 0; r < n; r++ {
		row := make([]types.Value, len(selTypes))
		for i, t := range selTypes {
			row[i] = p.value(t)
		}
		c.AppendRow(row...)
	}
	return c
}

func (p *picker) col(i int) Expr { return &ColRef{Idx: i, Typ: selTypes[i]} }

// predicate builds a random Boolean tree of the given depth.
func (p *picker) predicate(depth int) Expr {
	k := p.intn(8)
	if depth <= 0 {
		k %= 4
	}
	switch k {
	case 0, 1: // comparison, a constant on either side or none
		i := p.intn(len(selTypes))
		op := CmpOp(p.intn(6))
		l, r := p.col(i), Expr(&Const{Val: p.value(selTypes[i])})
		switch p.intn(3) {
		case 0:
			l, r = r, l
		case 1:
			r = p.col((i + 6) % len(selTypes))
		}
		return &Compare{Op: op, L: l, R: r}
	case 2: // IN
		i := p.intn(len(selTypes))
		vals := make([]types.Value, 1+p.intn(12))
		for j := range vals {
			vals[j] = p.value(selTypes[i])
		}
		return newIn(p.col(i), vals, p.intn(2) == 0)
	case 3: // LIKE against a constant or a column pattern
		var pat Expr = &Const{Val: types.NewVarchar(poolLike[p.intn(len(poolLike))])}
		switch p.intn(4) {
		case 0:
			pat = p.col(9)
		case 1:
			pat = &Const{Val: types.NewNull(types.Varchar)}
		}
		return &LikeExpr{X: p.col(3), Pattern: pat, Not: p.intn(2) == 0}
	case 4:
		return &Logic{Op: OpAnd, L: p.predicate(depth - 1), R: p.predicate(depth - 1)}
	case 5:
		return &Logic{Op: OpOr, L: p.predicate(depth - 1), R: p.predicate(depth - 1)}
	case 6:
		return &Not{X: p.predicate(depth - 1)}
	default:
		var x Expr = p.predicate(depth - 1)
		if p.intn(2) == 0 {
			x = p.col(p.intn(len(selTypes)))
		}
		return &IsNull{X: x, Not: p.intn(2) == 0}
	}
}

// refEval is a row-at-a-time reference for the predicate nodes, written
// from the SQL semantics rather than from the kernels.
func refEval(e Expr, row []types.Value) types.Value {
	null := types.NewNull(types.Boolean)
	switch e := e.(type) {
	case *ColRef:
		return row[e.Idx]
	case *Const:
		return e.Val
	case *Compare:
		l, r := refEval(e.L, row), refEval(e.R, row)
		if l.Null || r.Null {
			return null
		}
		c := types.Compare(l, r)
		return types.NewBool([]bool{c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0}[e.Op])
	case *Logic:
		l, r := refEval(e.L, row), refEval(e.R, row)
		decides := e.Op == OpOr
		switch {
		case !l.Null && l.Bool == decides, !r.Null && r.Bool == decides:
			return types.NewBool(decides)
		case l.Null || r.Null:
			return null
		}
		return types.NewBool(!decides)
	case *Not:
		x := refEval(e.X, row)
		if x.Null {
			return null
		}
		return types.NewBool(!x.Bool)
	case *IsNull:
		return types.NewBool(refEval(e.X, row).Null != e.Not)
	case *InConst:
		x := refEval(e.X, row)
		if x.Null {
			return null
		}
		has := slices.ContainsFunc(inValues[e], func(v types.Value) bool { return !v.Null && types.Compare(x, v) == 0 })
		if !has && slices.ContainsFunc(inValues[e], func(v types.Value) bool { return v.Null }) {
			return null // x = NULL is NULL: a non-member of a list holding NULL
		}
		return types.NewBool(has != e.Not)
	case *LikeExpr:
		x, pat := refEval(e.X, row), refEval(e.Pattern, row)
		if x.Null || pat.Null {
			return null
		}
		return types.NewBool(likeMatch(pat.Str, x.Str) != e.Not)
	}
	panic("refEval: unexpected node")
}

// inValues keeps each test-built IN list's constants for refEval.
var inValues = map[*InConst][]types.Value{}

func newIn(x Expr, vals []types.Value, not bool) *InConst {
	e := NewInConst(x, vals, not)
	inValues[e] = vals
	return e
}

// checkSelect holds Select to SelectTrue(Eval) over every row and over a
// sub-selection, and Eval to refEval row by row.
func checkSelect(t *testing.T, e Expr, in *vector.Chunk, p *picker) {
	t.Helper()
	mask, err := e.Eval(in)
	if err != nil {
		t.Fatalf("%s: Eval: %v", e, err)
	}
	for r := 0; r < in.Len(); r++ {
		want := refEval(e, in.Row(r))
		if got := mask.Get(r); got.Null != want.Null || !got.Null && got.Bool != want.Bool {
			t.Fatalf("%s row %d %v: Eval %v, want %v", e, r, in.Row(r), got, want)
		}
	}
	want := SelectTrue(mask, nil)
	var s Scratch
	for round := 0; round < 2; round++ { // the second round reuses the scratch
		s.Reset()
		got, err := Select(e, in, nil, &s)
		if err != nil {
			t.Fatalf("%s: Select: %v", e, err)
		}
		if !slices.Equal(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("%s: Select %v, SelectTrue(Eval) %v", e, got, want)
		}
	}
	sub := []int{} // non-nil: a nil selection means every row
	for r := 0; r < in.Len(); r++ {
		if p.intn(2) == 0 {
			sub = append(sub, r)
		}
	}
	s.Reset()
	got, err := Select(e, in, sub, &s)
	if err != nil {
		t.Fatalf("%s: Select over %v: %v", e, sub, err)
	}
	wantSub := slices.DeleteFunc(slices.Clone(want), func(r int) bool { return !slices.Contains(sub, r) })
	if !slices.Equal(got, wantSub) && len(got)+len(wantSub) > 0 {
		t.Fatalf("%s over %v: Select %v, want %v", e, sub, got, wantSub)
	}
}

func TestSelectMatchesEval(t *testing.T) {
	col := func(i int) Expr { return &ColRef{Idx: i, Typ: selTypes[i]} }
	k := func(v types.Value) Expr { return &Const{Val: v} }
	nan := types.NewDouble(math.NaN())
	cases := []Expr{
		&Compare{Op: CmpLt, L: col(0), R: k(types.NewBigInt(7))},
		&Compare{Op: CmpGt, L: k(types.NewBigInt(7)), R: col(0)},
		&Compare{Op: CmpGe, L: col(2), R: k(nan)},
		&Compare{Op: CmpGt, L: col(2), R: k(types.NewDouble(1.5))},
		&Compare{Op: CmpEq, L: col(2), R: k(types.NewDouble(math.Copysign(0, -1)))},
		&Compare{Op: CmpLe, L: k(nan), R: col(2)},
		&Compare{Op: CmpEq, L: col(3), R: k(types.NewVarchar("a\x00"))},
		&Compare{Op: CmpLt, L: col(3), R: k(types.NewVarchar("\xff"))},
		&Compare{Op: CmpNe, L: col(4), R: k(types.NewBool(true))},
		&Compare{Op: CmpEq, L: col(1), R: k(types.NewNull(types.Integer))},
		&Compare{Op: CmpEq, L: col(2), R: col(2)},
		&Compare{Op: CmpLt, L: col(0), R: col(6)},
		&Compare{Op: CmpGe, L: col(8), R: col(2)},
		&Compare{Op: CmpNe, L: col(3), R: col(9)},
		&Logic{Op: OpAnd, L: &Compare{Op: CmpGt, L: col(0), R: k(types.NewBigInt(0))},
			R: &Compare{Op: CmpLt, L: col(2), R: k(types.NewDouble(10))}},
		&Logic{Op: OpOr, L: &IsNull{X: col(3)}, R: &Not{X: col(4)}},
		&Not{X: &Logic{Op: OpAnd, L: col(4), R: &Compare{Op: CmpEq, L: col(3), R: k(types.NewVarchar("a"))}}},
		newIn(col(2), []types.Value{nan, types.NewDouble(0), types.NewNull(types.Double)}, false),
		newIn(col(0), []types.Value{types.NewBigInt(1), types.NewBigInt(math.MinInt64)}, true),
		newIn(col(3), []types.Value{types.NewVarchar("a"), types.NewVarchar("b"), types.NewVarchar("c"),
			types.NewVarchar("d"), types.NewVarchar("e"), types.NewVarchar("f"), types.NewVarchar("g"),
			types.NewVarchar("h"), types.NewVarchar("\xff")}, false),
		&LikeExpr{X: col(3), Pattern: k(types.NewVarchar("a%"))},
		&LikeExpr{X: col(3), Pattern: col(9), Not: true},
		&IsNull{X: col(1), Not: true},
		col(4),
		k(types.NewBool(true)),
		k(types.NewNull(types.Boolean)),
	}
	p := &picker{rng: rand.New(rand.NewSource(1))}
	for _, e := range cases {
		for _, n := range []int{0, 1, 7, vector.ChunkCapacity, vector.ChunkCapacity + 3} {
			checkSelect(t, e, p.chunk(n), p)
		}
	}
	for i := 0; i < 300; i++ {
		checkSelect(t, p.predicate(3), p.chunk(1+p.intn(80)), p)
	}
}

func FuzzFilterSelect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 4, 0, 1, 2, 3, 0, 1, 7, 5, 3, 2, 1})
	f.Add([]byte{40, 5, 1, 6, 2, 0, 3, 1, 1, 4, 0, 2, 2, 2, 9, 9, 9, 1, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		clear(inValues)
		p := &picker{data: data}
		n := p.intn(64)
		in := p.chunk(n)
		e := p.predicate(4)
		checkSelect(t, e, in, p)
	})
}

// TestCaseRunsBranchesOnTheirRows pins CASE's lazy branches: a THEN runs
// only on the rows its WHEN selected and ELSE only on the rest, so
// neither the division nor the cast below sees a row that would fail.
func TestCaseRunsBranchesOnTheirRows(t *testing.T) {
	in := vector.NewChunk([]types.Type{types.BigInt, types.Varchar})
	in.AppendRow(types.NewBigInt(0), types.NewVarchar("7"))
	in.AppendRow(types.NewBigInt(3), types.NewVarchar("a"))
	in.AppendRow(types.NewNull(types.BigInt), types.NewNull(types.Varchar))
	x, s := &ColRef{Idx: 0, Typ: types.BigInt}, &ColRef{Idx: 1, Typ: types.Varchar}
	mod := &CaseExpr{Typ: types.BigInt,
		Whens: []CaseWhen{{Cond: &Compare{Op: CmpEq, L: x, R: &Const{Val: types.NewBigInt(0)}},
			Result: &Const{Val: types.NewBigInt(-1)}}},
		Else: &Arith{Op: OpMod, Typ: types.BigInt, L: &Const{Val: types.NewBigInt(10)}, R: x}}
	cast := &CaseExpr{Typ: types.BigInt,
		Whens: []CaseWhen{{Cond: &Compare{Op: CmpEq, L: s, R: &Const{Val: types.NewVarchar("7")}},
			Result: &CastExpr{X: s, To: types.BigInt}}},
		Else: &Const{Val: types.NewBigInt(0)}}
	for _, c := range []struct {
		e    Expr
		want []types.Value
	}{
		{mod, []types.Value{types.NewBigInt(-1), types.NewBigInt(1), types.NewNull(types.BigInt)}},
		{cast, []types.Value{types.NewBigInt(7), types.NewBigInt(0), types.NewBigInt(0)}},
	} {
		out, err := c.e.Eval(in)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		for r, w := range c.want {
			if got := out.Get(r); !types.Equal(got, w) {
				t.Fatalf("%s row %d = %v, want %v", c.e, r, got, w)
			}
		}
	}
	// A filter's AND runs its right side only on the rows its left kept.
	and := &Logic{Op: OpAnd, L: cast.Whens[0].Cond,
		R: &Compare{Op: CmpEq, L: &CastExpr{X: s, To: types.BigInt}, R: &Const{Val: types.NewBigInt(7)}}}
	var sc Scratch
	if sel, err := Select(and, in, nil, &sc); err != nil || !slices.Equal(sel, []int{0}) {
		t.Fatalf("Select(%s) = %v, %v", and, sel, err)
	}
}

// TestScratchReuseAllocatesNothing holds the filter path to zero
// allocations per chunk once its scratch has warmed up, also where an
// intermediate vector carries NULLs: a reset keeps its mask's words.
func TestScratchReuseAllocatesNothing(t *testing.T) {
	p := &picker{rng: rand.New(rand.NewSource(2))}
	in := p.chunk(vector.ChunkCapacity)
	type filterCase struct {
		name string
		pred Expr
		in   *vector.Chunk
	}
	var cases []filterCase
	for _, e := range filterShapes() {
		cases = append(cases, filterCase{e.name, e.pred, in})
	}
	withNulls := vector.NewChunk([]types.Type{types.BigInt})
	for i := 0; i < vector.ChunkCapacity; i++ {
		v := types.NewBigInt(int64(i % 10))
		if i%7 == 0 {
			v = types.NewNull(types.BigInt)
		}
		withNulls.AppendRow(v)
	}
	x := &ColRef{Idx: 0, Typ: types.BigInt}
	plusOne := &Arith{Op: OpAdd, Typ: types.BigInt, L: x, R: &Const{Val: types.NewBigInt(1)}}
	cases = append(cases, filterCase{"x_plus_1_gt_5_with_nulls",
		&Compare{Op: CmpGt, L: plusOne, R: &Const{Val: types.NewBigInt(5)}}, withNulls})
	for _, c := range cases {
		var s Scratch
		allocs := testing.AllocsPerRun(20, func() {
			s.Reset()
			if _, err := Select(c.pred, c.in, nil, &s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per chunk", c.name, allocs)
		}
	}
}
