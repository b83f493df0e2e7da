package expr

import (
	"errors"
	"math"

	"repro/internal/types"
	"repro/internal/vector"
)

// The kernels below run one operator over a row list: one loop per
// operator, the operand either a second column or a scalar, never a
// per-row dispatch on the operator. Row lists are ascending row indices;
// a selection kernel writes the rows it keeps into out, which may be the
// row list itself (it never writes ahead of the row it reads).

type ordered interface {
	~int32 | ~int64 | ~float64 | ~string
}

type number interface {
	~int32 | ~int64 | ~float64
}

type integer interface {
	~int32 | ~int64
}

var (
	errDivZero = errors.New("expr: division by zero")
	errModZero = errors.New("expr: modulo by zero")
	errModF64  = errors.New("expr: % is not defined for DOUBLE")
)

// selCmpScalar keeps the rows i where xs[i] op c. > and >= are !(<=) and
// !(<), so a NaN in xs — greatest under types.CompareFloat — satisfies
// them against any non-NaN c (callers route a NaN c through orderKeys).
//
//quack:hotpath
func selCmpScalar[T ordered](op CmpOp, xs []T, c T, rows, out []int) []int {
	k := 0
	switch op {
	case CmpEq:
		for _, i := range rows {
			out[k] = i
			k += b2i(xs[i] == c)
		}
	case CmpNe:
		for _, i := range rows {
			out[k] = i
			k += b2i(xs[i] != c)
		}
	case CmpLt:
		for _, i := range rows {
			out[k] = i
			k += b2i(xs[i] < c)
		}
	case CmpLe:
		for _, i := range rows {
			out[k] = i
			k += b2i(xs[i] <= c)
		}
	case CmpGt:
		for _, i := range rows {
			out[k] = i
			k += b2i(!(xs[i] <= c))
		}
	default:
		for _, i := range rows {
			out[k] = i
			k += b2i(!(xs[i] < c))
		}
	}
	return out[:k]
}

// selCmpVec keeps the rows i where xs[i] op ys[i]; doubles and Booleans
// arrive as order keys (orderKeys).
//
//quack:hotpath
func selCmpVec[T ordered](op CmpOp, xs, ys []T, rows, out []int) []int {
	k := 0
	switch op {
	case CmpEq:
		for _, i := range rows {
			out[k] = i
			k += b2i(xs[i] == ys[i])
		}
	case CmpNe:
		for _, i := range rows {
			out[k] = i
			k += b2i(xs[i] != ys[i])
		}
	case CmpLt:
		for _, i := range rows {
			out[k] = i
			k += b2i(xs[i] < ys[i])
		}
	case CmpLe:
		for _, i := range rows {
			out[k] = i
			k += b2i(xs[i] <= ys[i])
		}
	case CmpGt:
		for _, i := range rows {
			out[k] = i
			k += b2i(xs[i] > ys[i])
		}
	default:
		for _, i := range rows {
			out[k] = i
			k += b2i(xs[i] >= ys[i])
		}
	}
	return out[:k]
}

// floatKey maps a double to an int64 that orders and equates like
// types.CompareFloat: -0 == +0, every NaN equal and greatest.
func floatKey(f float64) int64 {
	if f != f {
		return math.MaxInt64
	}
	if f == 0 {
		return 0
	}
	b := int64(math.Float64bits(f))
	if b < 0 {
		b ^= math.MaxInt64 // larger magnitudes order lower among negatives
	}
	return b
}

// orderKeys writes v's doubles (as floatKey) or Booleans (as 0/1) at
// rows into a scratch vector of int64 order keys.
//
//quack:hotpath
func orderKeys(s *Scratch, v *vector.Vector, rows []int) []int64 {
	k := s.vec(types.BigInt, v.Len())
	if v.Type == types.Double {
		for _, i := range rows {
			k.I64[i] = floatKey(v.F64[i])
		}
		return k.I64
	}
	for _, i := range rows {
		k.I64[i] = int64(b2i(v.Bools[i]))
	}
	return k.I64
}

// cmpScalar keeps the rows (all non-NULL in x) where x op c, c a
// non-NULL value of x's type.
//
//quack:hotpath
func cmpScalar(s *Scratch, op CmpOp, x *vector.Vector, c types.Value, rows, out []int) []int {
	switch x.Type {
	case types.Integer:
		return selCmpScalar(op, x.I32, int32(c.I64), rows, out)
	case types.BigInt, types.Timestamp:
		return selCmpScalar(op, x.I64, c.I64, rows, out)
	case types.Double:
		if c.F64 == c.F64 {
			return selCmpScalar(op, x.F64, c.F64, rows, out)
		}
		return selCmpScalar(op, orderKeys(s, x, rows), floatKey(c.F64), rows, out)
	case types.Varchar:
		return selCmpScalar(op, x.Str, c.Str, rows, out)
	case types.Boolean:
		return selCmpScalar(op, orderKeys(s, x, rows), int64(b2i(c.Bool)), rows, out)
	}
	return out[:0]
}

// cmpVec keeps the rows (all non-NULL in x and y) where x op y.
//
//quack:hotpath
func cmpVec(s *Scratch, op CmpOp, x, y *vector.Vector, rows, out []int) []int {
	switch x.Type {
	case types.Integer:
		return selCmpVec(op, x.I32, y.I32, rows, out)
	case types.BigInt, types.Timestamp:
		return selCmpVec(op, x.I64, y.I64, rows, out)
	case types.Varchar:
		return selCmpVec(op, x.Str, y.Str, rows, out)
	case types.Double, types.Boolean:
		return selCmpVec(op, orderKeys(s, x, rows), orderKeys(s, y, rows), rows, out)
	}
	return out[:0]
}

// arithScalar computes out[i] = xs[i] op c for +, -, * and /; an integer
// c is non-zero for /.
//
//quack:hotpath
func arithScalar[T number](op ArithOp, xs []T, c T, rows []int, out []T) {
	switch op {
	case OpAdd:
		for _, i := range rows {
			out[i] = xs[i] + c
		}
	case OpSub:
		for _, i := range rows {
			out[i] = xs[i] - c
		}
	case OpMul:
		for _, i := range rows {
			out[i] = xs[i] * c
		}
	default:
		for _, i := range rows {
			out[i] = xs[i] / c
		}
	}
}

// arithVec computes out[i] = xs[i] op ys[i] for +, -, * and, on doubles,
// /.
//
//quack:hotpath
func arithVec[T number](op ArithOp, xs, ys []T, rows []int, out []T) {
	switch op {
	case OpAdd:
		for _, i := range rows {
			out[i] = xs[i] + ys[i]
		}
	case OpSub:
		for _, i := range rows {
			out[i] = xs[i] - ys[i]
		}
	case OpMul:
		for _, i := range rows {
			out[i] = xs[i] * ys[i]
		}
	default:
		for _, i := range rows {
			out[i] = xs[i] / ys[i]
		}
	}
}

// modScalar computes out[i] = xs[i] % c, c non-zero.
//
//quack:hotpath
func modScalar[T integer](xs []T, c T, rows []int, out []T) {
	for _, i := range rows {
		out[i] = xs[i] % c
	}
}

// divModVec computes integer / or % over rows where both operands are
// non-NULL (valid lists them; it is rows when neither has NULLs). A zero
// divisor on such a row is an error; the other rows are left undefined.
//
//quack:hotpath
func divModVec[T integer](op ArithOp, xs, ys []T, valid []int, out []T) error {
	for _, i := range valid {
		if ys[i] == 0 {
			if op == OpDiv {
				return errDivZero
			}
			return errModZero
		}
	}
	if op == OpDiv {
		for _, i := range valid {
			out[i] = xs[i] / ys[i]
		}
		return nil
	}
	for _, i := range valid {
		out[i] = xs[i] % ys[i]
	}
	return nil
}
