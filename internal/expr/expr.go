// Package expr implements vectorized expression evaluation: each
// operator processes a whole 1024-row vector per call, amortizing
// interpretation overhead exactly as the paper's "vectorized interpreted
// execution engine" prescribes (§6). Expressions are bound (typed,
// column-resolved) by the planner; evaluation is pure and safe for
// concurrent use.
//
// Every node evaluates over a row list — the rows of the chunk that
// reach it — so a conjunct or a CASE branch never runs on rows that
// cannot reach it. Boolean nodes also select: they narrow a row list to
// the rows where they are TRUE without building a Boolean vector.
// Constants stay scalar: comparisons and arithmetic against a Const run
// column-op-scalar kernels (kernels.go). Intermediates come from a
// Scratch the caller owns (scratch.go).
package expr

import (
	"fmt"

	"repro/internal/types"
	"repro/internal/vector"
)

// Expr is a bound, typed, vectorized expression.
type Expr interface {
	// Type returns the expression's result type.
	Type() types.Type
	// Eval evaluates the expression over every row of in. The result
	// may alias vectors of in; callers must not mutate it. It is the
	// caller's to keep: only intermediates are recycled.
	Eval(in *vector.Chunk) (*vector.Vector, error)
	// String renders the expression for EXPLAIN output.
	String() string

	// eval computes the expression at the rows of rows (ascending) into
	// a vector of in.Len() rows whose other rows are undefined; storage
	// comes from s.
	eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error)
}

// ---- column references ----

// ColRef reads column Idx of the input chunk.
type ColRef struct {
	Idx  int
	Typ  types.Type
	Name string // for EXPLAIN
}

// Type implements Expr.
func (c *ColRef) Type() types.Type { return c.Typ }

// Eval implements Expr; it returns the input column unchanged.
func (c *ColRef) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(c, in) }

//quack:hotpath
func (c *ColRef) eval(in *vector.Chunk, _ []int, _ *Scratch) (*vector.Vector, error) {
	if c.Idx >= len(in.Cols) {
		return nil, c.outOfRange(in)
	}
	return in.Cols[c.Idx], nil
}

func (c *ColRef) outOfRange(in *vector.Chunk) error {
	return fmt.Errorf("expr: column %d out of range (%d cols)", c.Idx, len(in.Cols))
}

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("#%d", c.Idx)
}

// ---- constants ----

// Const is a literal value. Operators that take it as an operand read it
// as a scalar; only a Const evaluated on its own fills a vector.
type Const struct {
	Val types.Value
}

// Type implements Expr.
func (c *Const) Type() types.Type { return c.Val.Type }

// Eval implements Expr.
func (c *Const) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(c, in) }

//quack:hotpath
func (c *Const) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	t := c.Val.Type
	if t == types.Null {
		t = types.BigInt // placeholder payload; all rows NULL
	}
	out := s.vec(t, in.Len())
	if c.Val.Null || c.Val.Type == types.Null {
		setNulls(out, rows)
		return out, nil
	}
	switch t {
	case types.Boolean:
		for _, i := range rows {
			out.Bools[i] = c.Val.Bool
		}
	case types.Integer:
		for _, i := range rows {
			out.I32[i] = int32(c.Val.I64)
		}
	case types.BigInt, types.Timestamp:
		for _, i := range rows {
			out.I64[i] = c.Val.I64
		}
	case types.Double:
		for _, i := range rows {
			out.F64[i] = c.Val.F64
		}
	case types.Varchar:
		for _, i := range rows {
			out.Str[i] = c.Val.Str
		}
	}
	return out, nil
}

func (c *Const) String() string {
	if c.Val.Type == types.Varchar {
		return "'" + c.Val.Str + "'"
	}
	return c.Val.String()
}

// scalarOperand reports whether e is a Const usable as a scalar operand
// against a column of type t: NULL, or a value of t itself.
func scalarOperand(e Expr, t types.Type) (types.Value, bool) {
	c, ok := e.(*Const)
	if !ok || !(c.Val.Null || c.Val.Type == t) {
		return types.Value{}, false
	}
	return c.Val, true
}

// ---- casts ----

// CastExpr converts X to type To with strict semantics.
type CastExpr struct {
	X  Expr
	To types.Type
}

// Type implements Expr.
func (c *CastExpr) Type() types.Type { return c.To }

// Eval implements Expr.
func (c *CastExpr) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(c, in) }

//quack:hotpath
func (c *CastExpr) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	src, err := c.X.eval(in, rows, s)
	if err != nil {
		return nil, err
	}
	if src.Type == c.To {
		return src, nil
	}
	out := s.vec(c.To, in.Len())
	switch {
	case src.Type == types.Integer && c.To == types.BigInt:
		for _, i := range rows {
			out.I64[i] = int64(src.I32[i])
		}
	case src.Type == types.Integer && c.To == types.Double:
		for _, i := range rows {
			out.F64[i] = float64(src.I32[i])
		}
	case src.Type == types.BigInt && c.To == types.Double:
		for _, i := range rows {
			out.F64[i] = float64(src.I64[i])
		}
	default:
		return out, castRows(out, src, rows)
	}
	markNulls(out, src, rows)
	return out, nil
}

// castRows is the boxed path of CastExpr: one Value.Cast per row.
func castRows(out, src *vector.Vector, rows []int) error {
	for _, i := range rows {
		if src.IsNull(i) {
			out.SetNull(i)
			continue
		}
		v, err := src.Get(i).Cast(out.Type)
		if err != nil {
			return err
		}
		out.Set(i, v)
	}
	return nil
}

func (c *CastExpr) String() string {
	return fmt.Sprintf("CAST(%s AS %s)", c.X.String(), c.To)
}

// ---- comparisons ----

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// flip is the operator with its operands swapped: c < x is x > c.
func (o CmpOp) flip() CmpOp {
	return [...]CmpOp{CmpEq, CmpNe, CmpGt, CmpGe, CmpLt, CmpLe}[o]
}

// Compare evaluates L op R. Both sides have the same type (the binder
// inserts casts). NULL on either side yields NULL. Doubles compare under
// types.CompareFloat, VARCHAR bytewise.
type Compare struct {
	Op   CmpOp
	L, R Expr
}

// Type implements Expr.
func (c *Compare) Type() types.Type { return types.Boolean }

// Eval implements Expr.
func (c *Compare) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(c, in) }

//quack:hotpath
func (c *Compare) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	return evalOperands(c, in, rows, s)
}

// run implements operandPredicate; y is nil against a scalar.
//
//quack:hotpath
func (c *Compare) run(in *vector.Chunk, rows []int, s *Scratch, out []int) (kept []int, x, y *vector.Vector, err error) {
	l, r, op := c.L, c.R, c.Op
	if _, ok := l.(*Const); ok {
		l, r, op = r, l, op.flip()
	}
	if k, ok := scalarOperand(r, l.Type()); ok {
		if k.Null {
			return out[:0], nil, nil, nil
		}
		if x, err = l.eval(in, rows, s); err != nil {
			return nil, nil, nil, err
		}
		return cmpScalar(s, op, x, k, keepValid(x, rows, out), out), x, nil, nil
	}
	if x, err = l.eval(in, rows, s); err != nil {
		return nil, nil, nil, err
	}
	if y, err = r.eval(in, rows, s); err != nil {
		return nil, nil, nil, err
	}
	valid := keepValid(y, keepValid(x, rows, out), out)
	return cmpVec(s, op, x, y, valid, out), x, y, nil
}

func (c *Compare) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L.String(), c.Op, c.R.String())
}

// ---- arithmetic ----

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[o] }

// Arith evaluates L op R over same-typed numeric inputs. Integer
// arithmetic wraps like Go's; an integer division or modulo by zero on a
// row where both operands are non-NULL is an error.
type Arith struct {
	Op   ArithOp
	L, R Expr
	Typ  types.Type
}

// Type implements Expr.
func (a *Arith) Type() types.Type { return a.Typ }

// Eval implements Expr.
func (a *Arith) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(a, in) }

//quack:hotpath
func (a *Arith) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	if a.Typ != types.Integer && a.Typ != types.BigInt && a.Typ != types.Timestamp && a.Typ != types.Double {
		return nil, a.badType()
	}
	if a.Typ == types.Double && a.Op == OpMod {
		return nil, errModF64
	}
	l, r := a.L, a.R
	if _, ok := l.(*Const); ok && (a.Op == OpAdd || a.Op == OpMul) {
		l, r = r, l
	}
	x, err := l.eval(in, rows, s)
	if err != nil {
		return nil, err
	}
	out := s.vec(a.Typ, in.Len())
	markNulls(out, x, rows)
	if k, ok := scalarOperand(r, a.Typ); ok {
		if k.Null {
			setNulls(out, rows)
			return out, nil
		}
		return out, arithScalarOp(a.Op, x, k, rows, s, out)
	}
	y, err := r.eval(in, rows, s)
	if err != nil {
		return nil, err
	}
	markNulls(out, y, rows)
	switch {
	case a.Typ == types.Double:
		arithVec(a.Op, x.F64, y.F64, rows, out.F64)
	case a.Op == OpDiv || a.Op == OpMod:
		valid := s.rows(len(rows))
		valid = keepValid(y, keepValid(x, rows, valid), valid)
		if a.Typ == types.Integer {
			return out, divModVec(a.Op, x.I32, y.I32, valid, out.I32)
		}
		return out, divModVec(a.Op, x.I64, y.I64, valid, out.I64)
	case a.Typ == types.Integer:
		arithVec(a.Op, x.I32, y.I32, rows, out.I32)
	default:
		arithVec(a.Op, x.I64, y.I64, rows, out.I64)
	}
	return out, nil
}

// arithScalarOp computes x op k over rows into out, k non-NULL. An
// integer k of zero under / or % is an error only if a row of x is
// non-NULL.
//
//quack:hotpath
func arithScalarOp(op ArithOp, x *vector.Vector, k types.Value, rows []int, s *Scratch, out *vector.Vector) error {
	switch {
	case out.Type == types.Double:
		arithScalar(op, x.F64, k.F64, rows, out.F64)
		return nil
	case (op == OpDiv || op == OpMod) && k.I64 == 0:
		if len(keepValid(x, rows, s.rows(len(rows)))) > 0 {
			if op == OpDiv {
				return errDivZero
			}
			return errModZero
		}
		return nil
	case op == OpMod && out.Type == types.Integer:
		modScalar(x.I32, int32(k.I64), rows, out.I32)
	case op == OpMod:
		modScalar(x.I64, k.I64, rows, out.I64)
	case out.Type == types.Integer:
		arithScalar(op, x.I32, int32(k.I64), rows, out.I32)
	default:
		arithScalar(op, x.I64, k.I64, rows, out.I64)
	}
	return nil
}

func (a *Arith) badType() error { return fmt.Errorf("expr: arithmetic on type %s", a.Typ) }

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L.String(), a.Op, a.R.String())
}

// Neg is unary minus.
type Neg struct {
	X Expr
}

// Type implements Expr.
func (e *Neg) Type() types.Type { return e.X.Type() }

// Eval implements Expr.
func (e *Neg) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(e, in) }

//quack:hotpath
func (e *Neg) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	src, err := e.X.eval(in, rows, s)
	if err != nil {
		return nil, err
	}
	out := s.vec(src.Type, in.Len())
	switch src.Type {
	case types.Integer:
		for _, i := range rows {
			out.I32[i] = -src.I32[i]
		}
	case types.BigInt:
		for _, i := range rows {
			out.I64[i] = -src.I64[i]
		}
	case types.Double:
		for _, i := range rows {
			out.F64[i] = -src.F64[i]
		}
	default:
		return nil, e.badType(src.Type)
	}
	markNulls(out, src, rows)
	return out, nil
}

func (e *Neg) badType(t types.Type) error { return fmt.Errorf("expr: cannot negate type %s", t) }

func (e *Neg) String() string { return "-" + e.X.String() }

// ---- logic ----

// LogicOp is AND or OR.
type LogicOp int

// Logic operators.
const (
	OpAnd LogicOp = iota
	OpOr
)

// Logic implements three-valued AND/OR. Its right side runs only on the
// rows its left does not decide: as a value, AND's right side runs where
// the left is not FALSE and OR's where it is not TRUE; as a filter,
// AND's right side runs on the rows its left kept and OR's on the rest.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// Type implements Expr.
func (l *Logic) Type() types.Type { return types.Boolean }

// Eval implements Expr.
func (l *Logic) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(l, in) }

//quack:hotpath
func (l *Logic) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	lv, err := l.L.eval(in, rows, s)
	if err != nil {
		return nil, err
	}
	decides := l.Op == OpOr // the left value that settles the row: FALSE for AND, TRUE for OR
	out := s.vec(types.Boolean, in.Len())
	rest := s.rows(len(rows))
	k := 0
	for _, i := range rows {
		out.Bools[i] = decides
		rest[k] = i
		k += b2i(lv.IsNull(i) || lv.Bools[i] != decides)
	}
	rest = rest[:k]
	if len(rest) == 0 {
		return out, nil
	}
	rv, err := l.R.eval(in, rest, s)
	if err != nil {
		return nil, err
	}
	for _, i := range rest {
		switch rnull := rv.IsNull(i); {
		case !rnull && rv.Bools[i] == decides:
		case rnull || lv.IsNull(i):
			out.SetNull(i)
		default:
			out.Bools[i] = !decides
		}
	}
	return out, nil
}

//quack:hotpath
func (l *Logic) sel(in *vector.Chunk, rows []int, s *Scratch, out []int) ([]int, error) {
	if l.Op == OpAnd {
		kept, err := selectRows(l.L, in, rows, s, out)
		if err != nil || len(kept) == 0 {
			return kept, err
		}
		return selectRows(l.R, in, kept, s, kept)
	}
	left, err := selectRows(l.L, in, rows, s, s.rows(len(rows)))
	if err != nil {
		return nil, err
	}
	rest := s.rows(len(rows))
	rest = minus(rows, left, rest)
	if len(rest) == 0 {
		return out[:copy(out, left)], nil
	}
	right, err := selectRows(l.R, in, rest, s, rest)
	if err != nil {
		return nil, err
	}
	return merge(left, right, out), nil
}

func (l *Logic) String() string {
	op := "AND"
	if l.Op == OpOr {
		op = "OR"
	}
	return fmt.Sprintf("(%s %s %s)", l.L.String(), op, l.R.String())
}

// Not negates a boolean (NULL stays NULL).
type Not struct {
	X Expr
}

// Type implements Expr.
func (e *Not) Type() types.Type { return types.Boolean }

// Eval implements Expr.
func (e *Not) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(e, in) }

//quack:hotpath
func (e *Not) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	src, err := e.X.eval(in, rows, s)
	if err != nil {
		return nil, err
	}
	out := s.vec(types.Boolean, in.Len())
	for _, i := range rows {
		out.Bools[i] = !src.IsNull(i) && !src.Bools[i]
	}
	markNulls(out, src, rows)
	return out, nil
}

// sel keeps the rows where X is FALSE: X runs as a value, so an AND or
// OR under NOT runs its right side where the value needs it.
//
//quack:hotpath
func (e *Not) sel(in *vector.Chunk, rows []int, s *Scratch, out []int) ([]int, error) {
	src, err := e.X.eval(in, rows, s)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, i := range rows {
		out[k] = i
		k += b2i(!src.IsNull(i) && !src.Bools[i])
	}
	return out[:k], nil
}

func (e *Not) String() string { return "NOT " + e.X.String() }

// IsNull tests for NULL (never returns NULL itself).
type IsNull struct {
	X   Expr
	Not bool
}

// Type implements Expr.
func (e *IsNull) Type() types.Type { return types.Boolean }

// Eval implements Expr.
func (e *IsNull) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(e, in) }

//quack:hotpath
func (e *IsNull) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	src, err := e.X.eval(in, rows, s)
	if err != nil {
		return nil, err
	}
	out := s.vec(types.Boolean, in.Len())
	for _, i := range rows {
		out.Bools[i] = src.IsNull(i) != e.Not
	}
	return out, nil
}

//quack:hotpath
func (e *IsNull) sel(in *vector.Chunk, rows []int, s *Scratch, out []int) ([]int, error) {
	src, err := e.X.eval(in, rows, s)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, i := range rows {
		out[k] = i
		k += b2i(src.IsNull(i) != e.Not)
	}
	return out[:k], nil
}

func (e *IsNull) String() string {
	if e.Not {
		return e.X.String() + " IS NOT NULL"
	}
	return e.X.String() + " IS NULL"
}
