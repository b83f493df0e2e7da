package expr

import (
	"sync"

	"repro/internal/types"
	"repro/internal/vector"
)

// Scratch is a worker-local arena of the vectors and row lists an
// expression tree needs while it evaluates one chunk. Its owner (a
// filter or join stage, an aggregation table) calls Reset before each
// chunk; every vector and selection the scratch handed out since the
// last Reset is then reused, so a steady stream of chunks allocates
// nothing. A Scratch is not safe for concurrent use.
type Scratch struct {
	vecs []*vector.Vector
	nv   int
	sels [][]int
	ns   int
}

// Reset makes everything handed out since the previous Reset reusable.
func (s *Scratch) Reset() { s.nv, s.ns = 0, 0 }

// Eval evaluates e over every row of in into scratch-backed storage:
// the result (unless it is one of in's own columns) is overwritten after
// the next Reset, so the caller consumes it before then.
//
//quack:hotpath
func (s *Scratch) Eval(e Expr, in *vector.Chunk) (*vector.Vector, error) {
	return e.eval(in, allRows(in.Len()), s)
}

// Select returns the rows of sel (every row of in when sel is nil) where
// e is TRUE, in row order; NULL is never selected. The result lives in s
// until the next Reset. Conjuncts and branches run only on the rows that
// reach them: AND's right side on the rows its left kept, OR's on the
// rows its left did not keep.
//
//quack:hotpath
func Select(e Expr, in *vector.Chunk, sel []int, s *Scratch) ([]int, error) {
	if sel == nil {
		sel = allRows(in.Len())
	}
	return selectRows(e, in, sel, s, s.rows(len(sel)))
}

// vec returns a vector of type t and length n whose payload is
// undefined and whose validity is all-valid.
func (s *Scratch) vec(t types.Type, n int) *vector.Vector {
	if s.nv == len(s.vecs) {
		s.vecs = append(s.vecs, nil)
	}
	v := s.vecs[s.nv]
	if v == nil {
		v = vector.NewLen(t, n)
		s.vecs[s.nv] = v
	} else {
		v.Reset()
		v.Type = t
		v.SetLen(n)
	}
	s.nv++
	return v
}

// rows returns a row-index buffer of length n with undefined contents.
func (s *Scratch) rows(n int) []int {
	if s.ns == len(s.sels) {
		s.sels = append(s.sels, nil)
	}
	if cap(s.sels[s.ns]) < n {
		s.sels[s.ns] = make([]int, max(n, vector.ChunkCapacity))
	}
	b := s.sels[s.ns][:n]
	s.ns++
	return b
}

// detach hands v over to the caller: the scratch forgets it and
// allocates a new vector in its place next time.
func (s *Scratch) detach(v *vector.Vector) {
	for i, sv := range s.vecs[:s.nv] {
		if sv == v {
			s.vecs[i] = nil
		}
	}
}

// evalPool lends Eval its intermediates: only the root it returns is
// freshly allocated.
var evalPool = sync.Pool{New: func() any { return new(Scratch) }}

// evalFresh is Expr.Eval: e over every row of in, intermediates from a
// pooled scratch and the result owned by the caller. Chunks far larger
// than a vector's capacity get a scratch of their own, so the pool never
// pins their buffers.
//
//quack:hotpath
func evalFresh(e Expr, in *vector.Chunk) (*vector.Vector, error) {
	n := in.Len()
	if n > 4*vector.ChunkCapacity {
		return e.eval(in, allRows(n), new(Scratch))
	}
	s := evalPool.Get().(*Scratch)
	s.Reset()
	v, err := e.eval(in, allRows(n), s)
	s.detach(v)
	evalPool.Put(s)
	return v, err
}

// identity is [0, ChunkCapacity): the row list of a whole chunk. It is
// read-only; kernels never write into the rows they are given unless the
// caller passed the same buffer as out.
var identity = func() []int {
	r := make([]int, vector.ChunkCapacity)
	for i := range r {
		r[i] = i
	}
	return r
}()

// allRows returns the row list [0, n).
func allRows(n int) []int {
	if n <= len(identity) {
		return identity[:n]
	}
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// selectRows writes the rows of rows where e is TRUE into out, which
// has room for len(rows) entries and may be rows itself.
//
//quack:hotpath
func selectRows(e Expr, in *vector.Chunk, rows []int, s *Scratch, out []int) ([]int, error) {
	switch p := e.(type) {
	case operandPredicate:
		kept, _, _, err := p.run(in, rows, s, out)
		return kept, err
	case predicate:
		return p.sel(in, rows, s, out)
	}
	v, err := e.eval(in, rows, s)
	if err != nil {
		return nil, err
	}
	return keepTrue(v, rows, out), nil
}

// predicate is a Boolean expression over Boolean operands with a native
// selection kernel (AND/OR, NOT, IS NULL).
type predicate interface {
	// sel writes the rows of rows where the expression is TRUE into out
	// (room for len(rows) entries; it may be rows itself).
	sel(in *vector.Chunk, rows []int, s *Scratch, out []int) ([]int, error)
}

// operandPredicate is a predicate over its operands' values (Compare,
// IN, LIKE): TRUE on the rows run keeps, NULL where an operand is NULL,
// FALSE elsewhere.
type operandPredicate interface {
	// run writes the rows of rows where the predicate is TRUE into out,
	// as predicate.sel does, and returns the operand vectors NULLs come
	// from (y may be nil). x is nil when a constant operand is NULL: then
	// no row is kept and every row is NULL.
	run(in *vector.Chunk, rows []int, s *Scratch, out []int) (kept []int, x, y *vector.Vector, err error)
}

// evalOperands is an operandPredicate's value over rows.
//
//quack:hotpath
func evalOperands(p operandPredicate, in *vector.Chunk, rows []int, s *Scratch) (*vector.Vector, error) {
	kept, x, y, err := p.run(in, rows, s, s.rows(len(rows)))
	if err != nil {
		return nil, err
	}
	out := s.vec(types.Boolean, in.Len())
	if x == nil {
		setNulls(out, rows)
		return out, nil
	}
	for _, i := range rows {
		out.Bools[i] = false
	}
	for _, i := range kept {
		out.Bools[i] = true
	}
	markNulls(out, x, rows)
	markNulls(out, y, rows)
	return out, nil
}

// keepTrue keeps the rows of rows where the Boolean v is TRUE.
//
//quack:hotpath
func keepTrue(v *vector.Vector, rows, out []int) []int {
	k := 0
	if v.Valid.AllValid() {
		for _, i := range rows {
			out[k] = i
			k += b2i(v.Bools[i])
		}
		return out[:k]
	}
	for _, i := range rows {
		out[k] = i
		k += b2i(v.Valid.IsValid(i) && v.Bools[i])
	}
	return out[:k]
}

// keepValid keeps the rows of rows where v is not NULL; it returns rows
// itself when v has no NULLs.
//
//quack:hotpath
func keepValid(v *vector.Vector, rows, out []int) []int {
	if v.Valid.AllValid() {
		return rows
	}
	k := 0
	for _, i := range rows {
		out[k] = i
		k += b2i(v.Valid.IsValid(i))
	}
	return out[:k]
}

// minus writes the rows of rows not in drop (a sorted subset of rows)
// into out, which may be rows itself.
//
//quack:hotpath
func minus(rows, drop, out []int) []int {
	k, d := 0, 0
	for _, i := range rows {
		if d < len(drop) && drop[d] == i {
			d++
			continue
		}
		out[k] = i
		k++
	}
	return out[:k]
}

// merge writes the union of the disjoint sorted row lists a and b into
// out in row order.
//
//quack:hotpath
func merge(a, b, out []int) []int {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out[k], a = a[0], a[1:]
		} else {
			out[k], b = b[0], b[1:]
		}
		k++
	}
	k += copy(out[k:], a)
	k += copy(out[k:], b)
	return out[:k]
}

// markNulls sets out NULL at the rows of rows where src is NULL.
//
//quack:hotpath
func markNulls(out, src *vector.Vector, rows []int) {
	if src == nil || src.Valid.AllValid() {
		return
	}
	for _, i := range rows {
		if src.IsNull(i) {
			out.SetNull(i)
		}
	}
}

// setNulls sets out NULL at every row of rows.
func setNulls(out *vector.Vector, rows []int) {
	for _, i := range rows {
		out.SetNull(i)
	}
}

// copyRows copies the rows of rows from src into the same rows of dst
// (same type), NULLs included; dst's other rows are untouched.
//
//quack:hotpath
func copyRows(dst, src *vector.Vector, rows []int) {
	switch dst.Type {
	case types.Boolean:
		for _, i := range rows {
			dst.Bools[i] = src.Bools[i]
		}
	case types.Integer:
		for _, i := range rows {
			dst.I32[i] = src.I32[i]
		}
	case types.BigInt, types.Timestamp:
		for _, i := range rows {
			dst.I64[i] = src.I64[i]
		}
	case types.Double:
		for _, i := range rows {
			dst.F64[i] = src.F64[i]
		}
	case types.Varchar:
		for _, i := range rows {
			dst.Str[i] = src.Str[i]
		}
	}
	if src.Type == types.Null || dst.Type == types.Null {
		setNulls(dst, rows)
		return
	}
	markNulls(dst, src, rows)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
