package expr

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/types"
	"repro/internal/vector"
)

// LikeExpr implements SQL LIKE with % and _ wildcards. A constant
// pattern is compiled once, on first use.
type LikeExpr struct {
	X       Expr
	Pattern Expr
	Not     bool

	once  sync.Once
	match func(string) bool // the constant pattern's matcher, or nil
}

// Type implements Expr.
func (e *LikeExpr) Type() types.Type { return types.Boolean }

// Eval implements Expr.
func (e *LikeExpr) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(e, in) }

//quack:hotpath
func (e *LikeExpr) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	return evalOperands(e, in, rows, s)
}

// run implements operandPredicate; p is nil for a constant pattern.
//
//quack:hotpath
func (e *LikeExpr) run(in *vector.Chunk, rows []int, s *Scratch, out []int) (kept []int, x, p *vector.Vector, err error) {
	if x, err = e.X.eval(in, rows, s); err != nil {
		return nil, nil, nil, err
	}
	if pat, ok := scalarOperand(e.Pattern, types.Varchar); ok {
		if pat.Null {
			return out[:0], nil, nil, nil
		}
		match := e.constMatcher(pat.Str)
		k := 0
		for _, i := range keepValid(x, rows, out) {
			out[k] = i
			k += b2i(match(x.Str[i]) != e.Not)
		}
		return out[:k], x, nil, nil
	}
	if p, err = e.Pattern.eval(in, rows, s); err != nil {
		return nil, nil, nil, err
	}
	return likeRows(x, p, keepValid(p, keepValid(x, rows, out), out), out, e.Not), x, p, nil
}

// constMatcher compiles the constant pattern on first use.
func (e *LikeExpr) constMatcher(pat string) func(string) bool {
	e.once.Do(func() { e.match = compileLike(pat) })
	return e.match
}

// likeRows matches a pattern column row by row, recompiling only when
// the pattern changes from one row to the next.
func likeRows(x, p *vector.Vector, rows, out []int, not bool) []int {
	var (
		lastPat string
		matcher func(string) bool
	)
	k := 0
	for _, i := range rows {
		if matcher == nil || p.Str[i] != lastPat {
			lastPat = p.Str[i]
			matcher = compileLike(lastPat)
		}
		out[k] = i
		k += b2i(matcher(x.Str[i]) != not)
	}
	return out[:k]
}

func (e *LikeExpr) String() string {
	op := " LIKE "
	if e.Not {
		op = " NOT LIKE "
	}
	return e.X.String() + op + e.Pattern.String()
}

// compileLike builds a matcher for a LIKE pattern. % matches any
// sequence, _ matches one character.
func compileLike(pattern string) func(string) bool {
	// Fast paths for the common shapes.
	if !strings.ContainsAny(pattern, "%_") {
		return func(s string) bool { return s == pattern }
	}
	if strings.Count(pattern, "%") == 1 && !strings.Contains(pattern, "_") {
		if strings.HasSuffix(pattern, "%") {
			prefix := pattern[:len(pattern)-1]
			return func(s string) bool { return strings.HasPrefix(s, prefix) }
		}
		if strings.HasPrefix(pattern, "%") {
			suffix := pattern[1:]
			return func(s string) bool { return strings.HasSuffix(s, suffix) }
		}
	}
	if strings.Count(pattern, "%") == 2 && !strings.Contains(pattern, "_") &&
		strings.HasPrefix(pattern, "%") && strings.HasSuffix(pattern, "%") {
		inner := pattern[1 : len(pattern)-1]
		if !strings.Contains(inner, "%") {
			return func(s string) bool { return strings.Contains(s, inner) }
		}
	}
	return func(s string) bool { return likeMatch(pattern, s) }
}

// likeMatch is a backtracking wildcard matcher (bytes, not runes — LIKE
// on multi-byte text matches per byte for _, consistent with simple
// embedded engines).
func likeMatch(pattern, s string) bool {
	var pi, si, starP, starS = 0, 0, -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// CaseExpr is a searched CASE (operands are desugared by the binder).
// Each WHEN runs on the rows no earlier WHEN took, each THEN on the rows
// its WHEN selected and ELSE on the rest, so a branch never sees a row
// that does not reach it.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // nil means NULL
	Typ   types.Type
}

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond, Result Expr
}

// Type implements Expr.
func (e *CaseExpr) Type() types.Type { return e.Typ }

// Eval implements Expr.
func (e *CaseExpr) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(e, in) }

//quack:hotpath
func (e *CaseExpr) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	out := s.vec(e.Typ, in.Len())
	rest := s.rows(len(rows))
	copy(rest, rows)
	hit := s.rows(len(rows))
	for _, w := range e.Whens {
		if len(rest) == 0 {
			break
		}
		took, err := selectRows(w.Cond, in, rest, s, hit)
		if err != nil {
			return nil, err
		}
		if len(took) == 0 {
			continue
		}
		res, err := w.Result.eval(in, took, s)
		if err != nil {
			return nil, err
		}
		copyRows(out, res, took)
		rest = minus(rest, took, rest)
	}
	if len(rest) == 0 {
		return out, nil
	}
	if e.Else == nil {
		setNulls(out, rest)
		return out, nil
	}
	els, err := e.Else.eval(in, rest, s)
	if err != nil {
		return nil, err
	}
	copyRows(out, els, rest)
	return out, nil
}

func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond.String(), w.Result.String())
	}
	if e.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", e.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// InConst is x IN (constants), evaluated against a set typed like x:
// int64 for the integer types and Booleans, order keys (floatKey) for
// doubles, so x IN (c) agrees with x = c; strings by value. A NULL in
// the list is no member, but it makes a non-member's result NULL: x = NULL
// is NULL, so x IN (1, NULL) is TRUE or NULL and x NOT IN (1, NULL) is
// FALSE or NULL, never TRUE.
type InConst struct {
	X       Expr
	Not     bool
	ints    map[int64]struct{}
	strs    map[string]struct{}
	hasNull bool
	labels  []string
}

// NewInConst builds an IN-set expression from constant values already
// cast to X's type.
func NewInConst(x Expr, vals []types.Value, not bool) *InConst {
	e := &InConst{X: x, Not: not, ints: map[int64]struct{}{}, strs: map[string]struct{}{}}
	for _, v := range vals {
		e.labels = append(e.labels, v.String())
		if v.Null {
			e.hasNull = true
			continue
		}
		switch v.Type {
		case types.Varchar:
			e.strs[v.Str] = struct{}{}
		case types.Double:
			e.ints[floatKey(v.F64)] = struct{}{}
		case types.Boolean:
			e.ints[int64(b2i(v.Bool))] = struct{}{}
		default:
			e.ints[v.I64] = struct{}{}
		}
	}
	return e
}

// Type implements Expr.
func (e *InConst) Type() types.Type { return types.Boolean }

// Eval implements Expr.
func (e *InConst) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(e, in) }

//quack:hotpath
func (e *InConst) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	return evalOperands(e, in, rows, s)
}

// run implements operandPredicate: the non-NULL rows whose value is
// (NOT) in the set. With a NULL in the list, the second vector it
// returns is NULL at every non-member.
//
//quack:hotpath
func (e *InConst) run(in *vector.Chunk, rows []int, s *Scratch, out []int) ([]int, *vector.Vector, *vector.Vector, error) {
	x, err := e.X.eval(in, rows, s)
	if err != nil {
		return nil, nil, nil, err
	}
	rows = keepValid(x, rows, out)
	not := e.Not
	var nulls *vector.Vector
	if e.hasNull {
		// Keep the members, then unmark them in nulls.
		not = false
		nulls = s.vec(types.Boolean, in.Len())
		setNulls(nulls, rows)
	}
	k := 0
	switch x.Type {
	case types.Varchar:
		for _, i := range rows {
			_, ok := e.strs[x.Str[i]]
			out[k] = i
			k += b2i(ok != not)
		}
	case types.Integer:
		for _, i := range rows {
			_, ok := e.ints[int64(x.I32[i])]
			out[k] = i
			k += b2i(ok != not)
		}
	case types.BigInt, types.Timestamp:
		for _, i := range rows {
			_, ok := e.ints[x.I64[i]]
			out[k] = i
			k += b2i(ok != not)
		}
	case types.Double:
		for _, i := range rows {
			_, ok := e.ints[floatKey(x.F64[i])]
			out[k] = i
			k += b2i(ok != not)
		}
	case types.Boolean:
		for _, i := range rows {
			_, ok := e.ints[int64(b2i(x.Bools[i]))]
			out[k] = i
			k += b2i(ok != not)
		}
	}
	if nulls == nil {
		return out[:k], x, nil, nil
	}
	for _, i := range out[:k] {
		nulls.Valid.SetValid(i)
	}
	if e.Not {
		k = 0 // a member is FALSE, a non-member NULL
	}
	return out[:k], x, nulls, nil
}

func (e *InConst) String() string {
	op := " IN ("
	if e.Not {
		op = " NOT IN ("
	}
	return e.X.String() + op + strings.Join(e.labels, ", ") + ")"
}

// ScalarFunc is a built-in scalar function call.
type ScalarFunc struct {
	Name string
	Args []Expr
	Typ  types.Type
}

// Type implements Expr.
func (e *ScalarFunc) Type() types.Type { return e.Typ }

// FuncResultType resolves a scalar function's result type from its
// argument types, or an error for unknown functions/signatures.
func FuncResultType(name string, args []types.Type) (types.Type, error) {
	switch name {
	case "abs":
		if len(args) == 1 && (args[0] == types.Integer || args[0] == types.BigInt || args[0] == types.Double) {
			return args[0], nil
		}
	case "floor", "ceil", "round", "sqrt", "ln", "exp":
		if len(args) >= 1 {
			return types.Double, nil
		}
	case "length":
		if len(args) == 1 && args[0] == types.Varchar {
			return types.BigInt, nil
		}
	case "lower", "upper", "trim", "substr", "concat":
		return types.Varchar, nil
	case "coalesce":
		if len(args) >= 1 {
			t := args[0]
			for _, a := range args[1:] {
				ct, err := types.CommonType(t, a)
				if err != nil {
					return types.Invalid, err
				}
				t = ct
			}
			return t, nil
		}
	case "greatest", "least":
		if len(args) >= 1 {
			t := args[0]
			for _, a := range args[1:] {
				ct, err := types.CommonType(t, a)
				if err != nil {
					return types.Invalid, err
				}
				t = ct
			}
			return t, nil
		}
	}
	return types.Invalid, fmt.Errorf("unknown function %s with %d argument(s)", name, len(args))
}

// Eval implements Expr.
func (e *ScalarFunc) Eval(in *vector.Chunk) (*vector.Vector, error) { return evalFresh(e, in) }

//quack:hotpath
func (e *ScalarFunc) eval(in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	var buf [4]*vector.Vector
	args := buf[:0]
	for _, a := range e.Args {
		v, err := a.eval(in, rows, s)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	out := s.vec(e.Typ, in.Len())
	switch e.Name {
	case "abs":
		a := args[0]
		switch a.Type {
		case types.Integer:
			for _, i := range rows {
				if v := a.I32[i]; v < 0 {
					out.I32[i] = -v
				} else {
					out.I32[i] = v
				}
			}
		case types.BigInt:
			for _, i := range rows {
				if v := a.I64[i]; v < 0 {
					out.I64[i] = -v
				} else {
					out.I64[i] = v
				}
			}
		case types.Double:
			for _, i := range rows {
				out.F64[i] = math.Abs(a.F64[i])
			}
		}
		markNulls(out, a, rows)
	case "floor", "ceil", "round", "sqrt", "ln", "exp":
		a := args[0]
		f := mathFunc(e.Name)
		for _, i := range rows {
			out.F64[i] = f(numAsFloat(a, i))
		}
		markNulls(out, a, rows)
	case "length":
		a := args[0]
		for _, i := range rows {
			out.I64[i] = int64(len(a.Str[i]))
		}
		markNulls(out, a, rows)
	case "lower", "upper", "trim":
		a := args[0]
		f := strFunc(e.Name)
		for _, i := range rows {
			out.Str[i] = f(a.Str[i])
		}
		markNulls(out, a, rows)
	case "substr":
		if len(args) < 2 {
			return nil, errSubstrArgs
		}
		substrRows(out, args, rows)
	case "concat", "coalesce", "greatest", "least":
		return out, boxedFunc(e.Name, out, args, rows)
	default:
		return nil, errUnknownFunc(e.Name)
	}
	return out, nil
}

var errSubstrArgs = errors.New("substr requires (string, start [, length])")

func errUnknownFunc(name string) error { return fmt.Errorf("unknown function %s", name) }

func strFunc(name string) func(string) string {
	switch name {
	case "lower":
		return strings.ToLower
	case "upper":
		return strings.ToUpper
	default:
		return strings.TrimSpace
	}
}

// substrRows is substr(string, start [, length]) with SQL's 1-based
// start, clamped to the string.
func substrRows(out *vector.Vector, args []*vector.Vector, rows []int) {
	a := args[0]
	for _, i := range rows {
		if a.IsNull(i) || args[1].IsNull(i) {
			out.SetNull(i)
			continue
		}
		s := a.Str[i]
		start := int(numAsInt(args[1], i)) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		end := len(s)
		if len(args) >= 3 && !args[2].IsNull(i) {
			if l := int(numAsInt(args[2], i)); start+l < end {
				end = start + l
			}
		}
		if start > len(s) {
			start = len(s)
		}
		if end < start {
			end = start
		}
		out.Str[i] = s[start:end]
	}
}

// boxedFunc evaluates the variadic functions whose arguments may differ
// in type, one boxed Value per argument and row.
func boxedFunc(name string, out *vector.Vector, args []*vector.Vector, rows []int) error {
	switch name {
	case "concat":
		for _, i := range rows {
			var sb strings.Builder
			for _, a := range args {
				if !a.IsNull(i) {
					sb.WriteString(a.Get(i).String())
				}
			}
			out.Str[i] = sb.String()
		}
	case "coalesce":
		for _, i := range rows {
			out.SetNull(i)
			for _, a := range args {
				if !a.IsNull(i) {
					v, err := a.Get(i).Cast(out.Type)
					if err != nil {
						return err
					}
					out.Set(i, v)
					break
				}
			}
		}
	default:
		wantGreatest := name == "greatest"
		for _, i := range rows {
			var best types.Value
			bestSet := false
			null := false
			for _, a := range args {
				if a.IsNull(i) {
					null = true
					break
				}
				v, err := a.Get(i).Cast(out.Type)
				if err != nil {
					return err
				}
				if !bestSet {
					best, bestSet = v, true
					continue
				}
				c := types.Compare(v, best)
				if (wantGreatest && c > 0) || (!wantGreatest && c < 0) {
					best = v
				}
			}
			if null || !bestSet {
				out.SetNull(i)
			} else {
				out.Set(i, best)
			}
		}
	}
	return nil
}

func (e *ScalarFunc) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

func mathFunc(name string) func(float64) float64 {
	switch name {
	case "floor":
		return math.Floor
	case "ceil":
		return math.Ceil
	case "round":
		return math.Round
	case "sqrt":
		return math.Sqrt
	case "ln":
		return math.Log
	default:
		return math.Exp
	}
}

func numAsFloat(v *vector.Vector, i int) float64 {
	switch v.Type {
	case types.Integer:
		return float64(v.I32[i])
	case types.BigInt, types.Timestamp:
		return float64(v.I64[i])
	default:
		return v.F64[i]
	}
}

func numAsInt(v *vector.Vector, i int) int64 {
	switch v.Type {
	case types.Integer:
		return int64(v.I32[i])
	case types.BigInt, types.Timestamp:
		return v.I64[i]
	default:
		return int64(v.F64[i])
	}
}

// SelectTrue returns the indices of rows where v is TRUE (valid and
// true), reusing sel's storage.
func SelectTrue(v *vector.Vector, sel []int) []int {
	n := v.Len()
	if cap(sel) < n {
		sel = make([]int, n)
	}
	return keepTrue(v, allRows(n), sel[:n])
}
