// Package vector implements QuackDB's columnar in-memory representation:
// typed column vectors with validity masks, and DataChunks — the
// horizontal slices of column data that flow through the "Vector Volcano"
// execution engine and across the client API without copying.
package vector

import (
	"fmt"

	"repro/internal/types"
)

// ChunkCapacity is the number of rows processed per vectorized step.
// One chunk of a few cache-resident columns is the unit of work for every
// operator, amortizing interpretation overhead over 1024 values.
const ChunkCapacity = 1024

// Bitmask is a validity mask: bit i set means row i holds a valid
// (non-NULL) value. An unused mask means "all valid", so fully-valid
// columns pay no masking cost; Reset keeps the words for the mask's next
// use, so a vector reused chunk after chunk does not reallocate them.
type Bitmask struct {
	words []uint64
	used  bool // a bit may have been cleared since the last Reset
}

// MaskWords returns how many 64-bit words a mask over n rows needs.
func MaskWords(n int) int { return (n + 63) / 64 }

// AllValid reports whether no bit has been cleared since the last Reset.
func (m *Bitmask) AllValid() bool { return !m.used }

// IsValid reports whether row i is valid. Rows beyond the materialized
// words were never invalidated (SetInvalid/SetValid grow the mask), so
// they are valid — vectors longer than the materialized prefix (e.g. a
// window's output slices, filled by appending) read correctly.
func (m *Bitmask) IsValid(i int) bool {
	if !m.used || i>>6 >= len(m.words) {
		return true
	}
	return m.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetInvalid marks row i NULL, materializing the mask on first use.
func (m *Bitmask) SetInvalid(i int) {
	m.materialize(i + 1)
	m.words[i>>6] &^= 1 << (uint(i) & 63)
}

// SetValid marks row i valid.
func (m *Bitmask) SetValid(i int) {
	if !m.used {
		return // already all-valid
	}
	m.ensure(i + 1)
	m.words[i>>6] |= 1 << (uint(i) & 63)
}

// Reset returns the mask to the all-valid state, keeping its words.
func (m *Bitmask) Reset() { m.used = false }

// CountValid returns the number of valid rows among the first n.
func (m *Bitmask) CountValid(n int) int {
	if !m.used {
		return n
	}
	count := 0
	for i := 0; i < n; i++ {
		if m.IsValid(i) {
			count++
		}
	}
	return count
}

func (m *Bitmask) materialize(n int) {
	if !m.used {
		w := MaskWords(maxInt(n, ChunkCapacity))
		if cap(m.words) < w {
			m.words = make([]uint64, w)
		}
		m.words = m.words[:w]
		for i := range m.words {
			m.words[i] = ^uint64(0)
		}
		m.used = true
		return
	}
	m.ensure(n)
}

func (m *Bitmask) ensure(n int) {
	w := MaskWords(n)
	for len(m.words) < w {
		m.words = append(m.words, ^uint64(0))
	}
}

// Vector is a typed column slice with a validity mask. The physical
// payload lives in exactly one of the typed slices according to Type;
// BIGINT and TIMESTAMP share the int64 payload.
type Vector struct {
	Type  types.Type
	Valid Bitmask

	Bools []bool
	I32   []int32
	I64   []int64
	F64   []float64
	Str   []string

	length int
}

// New returns a vector of the given type with capacity for n rows.
func New(t types.Type, n int) *Vector {
	v := &Vector{Type: t}
	v.grow(n)
	v.length = 0
	return v
}

// NewLen returns a zeroed vector of the given type with length n.
func NewLen(t types.Type, n int) *Vector {
	v := New(t, n)
	v.length = n
	return v
}

// growCap doubles capacity so repeated appends stay amortized O(1).
func growCap(have, need int) int {
	if c := 2 * have; c > need {
		return c
	}
	return need
}

func (v *Vector) grow(n int) {
	switch v.Type {
	case types.Boolean:
		if cap(v.Bools) < n {
			nb := make([]bool, n, growCap(cap(v.Bools), n))
			copy(nb, v.Bools)
			v.Bools = nb
		}
		v.Bools = v.Bools[:n]
	case types.Integer:
		if cap(v.I32) < n {
			ni := make([]int32, n, growCap(cap(v.I32), n))
			copy(ni, v.I32)
			v.I32 = ni
		}
		v.I32 = v.I32[:n]
	case types.BigInt, types.Timestamp:
		if cap(v.I64) < n {
			ni := make([]int64, n, growCap(cap(v.I64), n))
			copy(ni, v.I64)
			v.I64 = ni
		}
		v.I64 = v.I64[:n]
	case types.Double:
		if cap(v.F64) < n {
			nf := make([]float64, n, growCap(cap(v.F64), n))
			copy(nf, v.F64)
			v.F64 = nf
		}
		v.F64 = v.F64[:n]
	case types.Varchar:
		if cap(v.Str) < n {
			ns := make([]string, n, growCap(cap(v.Str), n))
			copy(ns, v.Str)
			v.Str = ns
		}
		v.Str = v.Str[:n]
	case types.Null:
		// NULL vectors carry no payload.
	default:
		panic(fmt.Sprintf("vector.New: invalid type %v", v.Type))
	}
}

// Len returns the number of rows in the vector.
func (v *Vector) Len() int { return v.length }

// SetLen sets the row count, growing payload storage as needed.
func (v *Vector) SetLen(n int) {
	v.grow(n)
	v.length = n
}

// Reset empties the vector for reuse, keeping allocated capacity.
func (v *Vector) Reset() {
	v.length = 0
	v.Valid.Reset()
	v.Bools = v.Bools[:0]
	v.I32 = v.I32[:0]
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Str = v.Str[:0]
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool { return !v.Valid.IsValid(i) }

// SetNull marks row i NULL.
func (v *Vector) SetNull(i int) { v.Valid.SetInvalid(i) }

// Get materializes row i as a Value. Not for hot paths.
func (v *Vector) Get(i int) types.Value {
	if v.IsNull(i) || v.Type == types.Null {
		return types.NewNull(v.Type)
	}
	switch v.Type {
	case types.Boolean:
		return types.NewBool(v.Bools[i])
	case types.Integer:
		return types.NewInt(v.I32[i])
	case types.BigInt:
		return types.NewBigInt(v.I64[i])
	case types.Timestamp:
		return types.NewTimestamp(v.I64[i])
	case types.Double:
		return types.NewDouble(v.F64[i])
	case types.Varchar:
		return types.NewVarchar(v.Str[i])
	}
	panic("vector.Get: invalid type")
}

// Set stores a Value at row i, which must be within the current length.
// The value's type must match the vector's (NULLs of any type allowed).
func (v *Vector) Set(i int, val types.Value) {
	if val.Null || val.Type == types.Null {
		v.SetNull(i)
		return
	}
	v.Valid.SetValid(i)
	switch v.Type {
	case types.Boolean:
		v.Bools[i] = val.Bool
	case types.Integer:
		v.I32[i] = int32(val.I64)
	case types.BigInt, types.Timestamp:
		v.I64[i] = val.I64
	case types.Double:
		v.F64[i] = val.F64
	case types.Varchar:
		v.Str[i] = val.Str
	default:
		panic("vector.Set: invalid type")
	}
}

// Append adds a Value at the end of the vector.
func (v *Vector) Append(val types.Value) {
	i := v.length
	v.SetLen(i + 1)
	v.Set(i, val)
}

// SetFrom copies row srcRow of src into row dstRow without boxing.
// Types must match; dstRow must be within the current length.
func (v *Vector) SetFrom(dstRow int, src *Vector, srcRow int) {
	if src.IsNull(srcRow) {
		v.SetNull(dstRow)
		return
	}
	v.Valid.SetValid(dstRow)
	switch v.Type {
	case types.Boolean:
		v.Bools[dstRow] = src.Bools[srcRow]
	case types.Integer:
		v.I32[dstRow] = src.I32[srcRow]
	case types.BigInt, types.Timestamp:
		v.I64[dstRow] = src.I64[srcRow]
	case types.Double:
		v.F64[dstRow] = src.F64[srcRow]
	case types.Varchar:
		v.Str[dstRow] = src.Str[srcRow]
	}
}

// AppendFrom appends row srcRow of src to this vector. Types must match.
//
//quack:hotpath
func (v *Vector) AppendFrom(src *Vector, srcRow int) {
	i := v.length
	v.SetLen(i + 1)
	if src.IsNull(srcRow) {
		v.SetNull(i)
		return
	}
	v.Valid.SetValid(i)
	switch v.Type {
	case types.Boolean:
		v.Bools[i] = src.Bools[srcRow]
	case types.Integer:
		v.I32[i] = src.I32[srcRow]
	case types.BigInt, types.Timestamp:
		v.I64[i] = src.I64[srcRow]
	case types.Double:
		v.F64[i] = src.F64[srcRow]
	case types.Varchar:
		v.Str[i] = src.Str[srcRow]
	}
}

// AppendRange bulk-appends count rows of src starting at srcStart,
// NULL-ness included: a row valid in src is valid in v even where v's
// mask held a cleared bit from earlier use.
func (v *Vector) AppendRange(src *Vector, srcStart, count int) {
	base := v.length
	v.SetLen(base + count)
	switch v.Type {
	case types.Boolean:
		copy(v.Bools[base:], src.Bools[srcStart:srcStart+count])
	case types.Integer:
		copy(v.I32[base:], src.I32[srcStart:srcStart+count])
	case types.BigInt, types.Timestamp:
		copy(v.I64[base:], src.I64[srcStart:srcStart+count])
	case types.Double:
		copy(v.F64[base:], src.F64[srcStart:srcStart+count])
	case types.Varchar:
		copy(v.Str[base:], src.Str[srcStart:srcStart+count])
	}
	if src.Valid.AllValid() && v.Valid.AllValid() {
		return
	}
	for i := 0; i < count; i++ {
		if src.Valid.IsValid(srcStart + i) {
			v.Valid.SetValid(base + i)
		} else {
			v.Valid.SetInvalid(base + i)
		}
	}
}

// CompactInto writes the rows selected by sel into dst, in order.
func (v *Vector) CompactInto(dst *Vector, sel []int) {
	dst.Type = v.Type
	dst.SetLen(len(sel))
	dst.Valid.Reset()
	switch v.Type {
	case types.Boolean:
		for o, i := range sel {
			dst.Bools[o] = v.Bools[i]
		}
	case types.Integer:
		for o, i := range sel {
			dst.I32[o] = v.I32[i]
		}
	case types.BigInt, types.Timestamp:
		for o, i := range sel {
			dst.I64[o] = v.I64[i]
		}
	case types.Double:
		for o, i := range sel {
			dst.F64[o] = v.F64[i]
		}
	case types.Varchar:
		for o, i := range sel {
			dst.Str[o] = v.Str[i]
		}
	}
	if !v.Valid.AllValid() {
		for o, i := range sel {
			if !v.Valid.IsValid(i) {
				dst.Valid.SetInvalid(o)
			}
		}
	}
}

// Chunk is a horizontal subset of a result set, query intermediate or
// base table: a set of column slices of equal length. Chunks are the
// handover unit between operators and to the client application.
type Chunk struct {
	Cols []*Vector
	n    int
}

// NewChunk returns an empty chunk with one vector per column type, each
// with ChunkCapacity capacity.
func NewChunk(colTypes []types.Type) *Chunk {
	c := &Chunk{Cols: make([]*Vector, len(colTypes))}
	for i, t := range colTypes {
		c.Cols[i] = New(t, ChunkCapacity)
	}
	return c
}

// Len returns the number of rows in the chunk.
func (c *Chunk) Len() int { return c.n }

// SetLen sets the chunk's row count, resizing every column.
func (c *Chunk) SetLen(n int) {
	for _, col := range c.Cols {
		col.SetLen(n)
	}
	c.n = n
}

// NumCols returns the number of columns.
func (c *Chunk) NumCols() int { return len(c.Cols) }

// Types returns the column types.
func (c *Chunk) Types() []types.Type {
	ts := make([]types.Type, len(c.Cols))
	for i, col := range c.Cols {
		ts[i] = col.Type
	}
	return ts
}

// Reset empties the chunk for reuse.
func (c *Chunk) Reset() {
	for _, col := range c.Cols {
		col.Reset()
	}
	c.n = 0
}

// AppendRow appends one row of values (one per column).
func (c *Chunk) AppendRow(vals ...types.Value) {
	if len(vals) != len(c.Cols) {
		panic(fmt.Sprintf("AppendRow: %d values for %d columns", len(vals), len(c.Cols)))
	}
	for i, v := range vals {
		c.Cols[i].Append(v)
	}
	c.n++
}

// AppendRowFrom appends row srcRow of src (same schema) to this chunk.
//
//quack:hotpath
func (c *Chunk) AppendRowFrom(src *Chunk, srcRow int) {
	for i, col := range c.Cols {
		col.AppendFrom(src.Cols[i], srcRow)
	}
	c.n++
}

// Row materializes row i as values. Not for hot paths.
func (c *Chunk) Row(i int) []types.Value {
	out := make([]types.Value, len(c.Cols))
	for j, col := range c.Cols {
		out[j] = col.Get(i)
	}
	return out
}

// CompactInto writes the selected rows of c into dst (same schema).
func (c *Chunk) CompactInto(dst *Chunk, sel []int) {
	for i, col := range c.Cols {
		col.CompactInto(dst.Cols[i], sel)
	}
	dst.n = len(sel)
}

// Compact returns a new chunk holding the selected rows of c, its
// vectors sized to the survivors.
func (c *Chunk) Compact(sel []int) *Chunk {
	out := &Chunk{Cols: make([]*Vector, len(c.Cols)), n: len(sel)}
	for i, col := range c.Cols {
		out.Cols[i] = New(col.Type, len(sel))
		col.CompactInto(out.Cols[i], sel)
	}
	return out
}

// GatherInto fills dst's columns from colOff on with rows picked from
// many source chunks: row i of dst.Cols[colOff+c] becomes row rows[i] of
// srcs[i].Cols[c], and dst's length becomes len(srcs). Columns below
// colOff are the caller's (a join fills its probe side there); sources
// may carry more columns than dst takes. One type switch per column,
// not one per column per row.
//
//quack:hotpath
func GatherInto(dst *Chunk, colOff int, srcs []*Chunk, rows []int32) {
	for c, col := range dst.Cols[colOff:] {
		col.SetLen(len(srcs))
		col.Valid.Reset()
		switch col.Type {
		case types.Boolean:
			for i, src := range srcs {
				col.Bools[i] = src.Cols[c].Bools[rows[i]]
			}
		case types.Integer:
			for i, src := range srcs {
				col.I32[i] = src.Cols[c].I32[rows[i]]
			}
		case types.BigInt, types.Timestamp:
			for i, src := range srcs {
				col.I64[i] = src.Cols[c].I64[rows[i]]
			}
		case types.Double:
			for i, src := range srcs {
				col.F64[i] = src.Cols[c].F64[rows[i]]
			}
		case types.Varchar:
			for i, src := range srcs {
				col.Str[i] = src.Cols[c].Str[rows[i]]
			}
		}
		for i, src := range srcs {
			if v := src.Cols[c]; !v.Valid.AllValid() && v.IsNull(int(rows[i])) {
				col.SetNull(i)
			}
		}
	}
	dst.n = len(srcs)
}

// HeapBytes estimates the chunk's resident size for pool accounting.
func (c *Chunk) HeapBytes() int64 {
	var total int64
	for _, col := range c.Cols {
		n := int64(col.Len())
		switch col.Type {
		case types.Varchar:
			for _, s := range col.Str {
				total += int64(len(s)) + 16
			}
		case types.Boolean:
			total += n
		case types.Integer:
			total += 4 * n
		default:
			total += 8 * n
		}
	}
	return total
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
