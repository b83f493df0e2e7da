package expr

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/types"
	"repro/internal/vector"
)

func oneColChunk(t types.Type, vals ...types.Value) *vector.Chunk {
	c := vector.NewChunk([]types.Type{t})
	for _, v := range vals {
		c.AppendRow(v)
	}
	return c
}

func TestColRefAliasesInput(t *testing.T) {
	in := oneColChunk(types.BigInt, types.NewBigInt(7))
	e := &ColRef{Idx: 0, Typ: types.BigInt}
	out, err := e.Eval(in)
	if err != nil || out != in.Cols[0] {
		t.Fatalf("ColRef should return the input vector: %v", err)
	}
	if (&ColRef{Idx: 3, Typ: types.BigInt}).Type() != types.BigInt {
		t.Fatal("type")
	}
	if _, err := (&ColRef{Idx: 9}).Eval(in); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}

func TestConstBroadcastAndNull(t *testing.T) {
	in := &vector.Chunk{}
	in.SetLen(5)
	out, err := (&Const{Val: types.NewInt(3)}).Eval(in)
	if err != nil || out.Len() != 5 || out.I32[4] != 3 {
		t.Fatalf("%v %v", out, err)
	}
	nullOut, err := (&Const{Val: types.NewNull(types.Null)}).Eval(in)
	if err != nil || !nullOut.IsNull(0) {
		t.Fatalf("null const: %v", err)
	}
}

func TestCompareNullPropagation(t *testing.T) {
	in := oneColChunk(types.BigInt,
		types.NewBigInt(1), types.NewNull(types.BigInt), types.NewBigInt(3))
	cmp := &Compare{Op: CmpGt, L: &ColRef{Idx: 0, Typ: types.BigInt}, R: &Const{Val: types.NewBigInt(2)}}
	out, err := cmp.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bools[0] || !out.IsNull(1) || !out.Bools[2] {
		t.Fatalf("1>2=%v null=%v 3>2=%v", out.Bools[0], out.IsNull(1), out.Bools[2])
	}
}

func TestArithOverflowWrapsLikeGo(t *testing.T) {
	in := oneColChunk(types.BigInt, types.NewBigInt(5))
	div := &Arith{Op: OpDiv, Typ: types.BigInt,
		L: &ColRef{Idx: 0, Typ: types.BigInt}, R: &Const{Val: types.NewBigInt(0)}}
	if _, err := div.Eval(in); err == nil {
		t.Fatal("int division by zero accepted")
	}
}

func TestLogicTruthTable(t *testing.T) {
	null := types.NewNull(types.Boolean)
	tr, fa := types.NewBool(true), types.NewBool(false)
	cases := []struct {
		op   LogicOp
		l, r types.Value
		want types.Value
	}{
		{OpAnd, tr, tr, tr},
		{OpAnd, tr, fa, fa},
		{OpAnd, fa, null, fa},   // FALSE AND NULL = FALSE
		{OpAnd, null, tr, null}, // NULL AND TRUE = NULL
		{OpOr, fa, fa, fa},
		{OpOr, tr, null, tr},   // TRUE OR NULL = TRUE
		{OpOr, null, fa, null}, // NULL OR FALSE = NULL
		{OpOr, null, null, null},
	}
	for _, c := range cases {
		in := vector.NewChunk([]types.Type{types.Boolean, types.Boolean})
		in.AppendRow(c.l, c.r)
		e := &Logic{Op: c.op, L: &ColRef{Idx: 0, Typ: types.Boolean}, R: &ColRef{Idx: 1, Typ: types.Boolean}}
		out, err := e.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Get(0)
		if !types.Equal(got, c.want) {
			t.Errorf("%v(%v, %v) = %v, want %v", c.op, c.l, c.r, got, c.want)
		}
	}
}

func TestLikeMatcherProperty(t *testing.T) {
	// likeMatch on a pattern without wildcards must equal string equality.
	f := func(s string) bool {
		return likeMatch(s, s) && (len(s) == 0 || likeMatch("%", s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLikeEdgePatterns(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"", "", true},
		{"", "x", false},
		{"%", "", true},
		{"%%", "anything", true},
		{"_", "", false},
		{"_", "a", true},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
		{"%abc", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestSelectTrue(t *testing.T) {
	v := vector.NewLen(types.Boolean, 4)
	v.Bools[0], v.Bools[2] = true, true
	v.SetNull(2) // TRUE but NULL → not selected
	sel := SelectTrue(v, nil)
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("sel = %v", sel)
	}
}

func TestCastVectorFastPaths(t *testing.T) {
	in := oneColChunk(types.Integer, types.NewInt(5), types.NewNull(types.Integer))
	for _, to := range []types.Type{types.BigInt, types.Double, types.Varchar} {
		e := &CastExpr{X: &ColRef{Idx: 0, Typ: types.Integer}, To: to}
		out, err := e.Eval(in)
		if err != nil {
			t.Fatalf("cast to %v: %v", to, err)
		}
		if out.IsNull(0) || !out.IsNull(1) {
			t.Fatalf("cast to %v: validity wrong", to)
		}
		if got := out.Get(0).String(); got != "5" {
			t.Fatalf("cast to %v: %q", to, got)
		}
	}
}

func TestScalarFuncArity(t *testing.T) {
	if _, err := FuncResultType("frobnicate", nil); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, err := FuncResultType("length", []types.Type{types.BigInt}); err == nil {
		t.Fatal("length(BIGINT) accepted")
	}
	typ, err := FuncResultType("coalesce", []types.Type{types.Integer, types.Double})
	if err != nil || typ != types.Double {
		t.Fatalf("coalesce type %v %v", typ, err)
	}
}

// TestInConstNulls pins IN's three-valued logic over x = 1, NULL, 2: a
// NULL x is NULL, and a NULL in the list makes every non-member NULL —
// under NOT IN too, which is then never TRUE. Select keeps exactly the
// TRUE rows.
func TestInConstNulls(t *testing.T) {
	in := oneColChunk(types.BigInt, types.NewBigInt(1), types.NewNull(types.BigInt), types.NewBigInt(2))
	one, null := types.NewBigInt(1), types.NewNull(types.BigInt)
	tru, fls, unk := types.NewBool(true), types.NewBool(false), types.NewNull(types.Boolean)
	for _, c := range []struct {
		list []types.Value
		not  bool
		want []types.Value
	}{
		{[]types.Value{one}, false, []types.Value{tru, unk, fls}},
		{[]types.Value{one}, true, []types.Value{fls, unk, tru}},
		{[]types.Value{one, null}, false, []types.Value{tru, unk, unk}},
		{[]types.Value{one, null}, true, []types.Value{fls, unk, unk}},
		{[]types.Value{null}, true, []types.Value{unk, unk, unk}},
	} {
		e := NewInConst(&ColRef{Idx: 0, Typ: types.BigInt}, c.list, c.not)
		out, err := e.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		var keep []int
		for r, w := range c.want {
			if got := out.Get(r); !types.Equal(got, w) {
				t.Errorf("%s row %d = %v, want %v", e, r, got, w)
			}
			if !w.Null && w.Bool {
				keep = append(keep, r)
			}
		}
		var s Scratch
		if sel, err := Select(e, in, nil, &s); err != nil || !slices.Equal(sel, keep) {
			t.Errorf("Select(%s) = %v, %v; want %v", e, sel, err, keep)
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := &Compare{Op: CmpLe,
		L: &ColRef{Idx: 0, Typ: types.BigInt, Name: "v"},
		R: &Const{Val: types.NewBigInt(3)}}
	if e.String() != "(v <= 3)" {
		t.Fatalf("String() = %q", e.String())
	}
}
