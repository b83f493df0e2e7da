package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/types"
)

// Binary codec for vectors and chunks, shared by the WAL, the storage
// checkpointer and the external-sort spill files. Layout per vector:
//
//	type u8 | n u32 | maskFlag u8 [| mask words] | payload
//
// Varchar payloads are length-prefixed strings; fixed-width payloads are
// little-endian arrays.

// EncodeVector appends the serialized form of v to dst and returns it.
func EncodeVector(dst []byte, v *Vector) []byte {
	n := v.Len()
	dst = append(dst, byte(v.Type))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	if v.Valid.AllValid() {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		words := MaskWords(n)
		for w := 0; w < words; w++ {
			var word uint64
			if w < len(v.Valid.words) {
				word = v.Valid.words[w]
			} else {
				word = ^uint64(0)
			}
			dst = binary.LittleEndian.AppendUint64(dst, word)
		}
	}
	switch v.Type {
	case types.Boolean:
		for i := 0; i < n; i++ {
			b := byte(0)
			if v.Bools[i] {
				b = 1
			}
			dst = append(dst, b)
		}
	case types.Integer:
		dst = slices.Grow(dst, 4*n)
		for i := 0; i < n; i++ {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v.I32[i]))
		}
	case types.BigInt, types.Timestamp:
		dst = slices.Grow(dst, 8*n)
		for i := 0; i < n; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I64[i]))
		}
	case types.Double:
		dst = slices.Grow(dst, 8*n)
		for i := 0; i < n; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64Bits(v.F64[i])))
		}
	case types.Varchar:
		for i := 0; i < n; i++ {
			dst = binary.AppendUvarint(dst, uint64(len(v.Str[i])))
			dst = append(dst, v.Str[i]...)
		}
	case types.Null:
		// no payload
	}
	return dst
}

// DecodeVector parses one vector from src, returning it and the rest of
// the buffer.
func DecodeVector(src []byte) (*Vector, []byte, error) {
	if len(src) < 6 {
		return nil, nil, fmt.Errorf("vector: truncated header")
	}
	t := types.Type(src[0])
	n := int(binary.LittleEndian.Uint32(src[1:]))
	maskFlag := src[5]
	src = src[6:]
	v := NewLen(t, n)
	if maskFlag == 1 {
		words := MaskWords(n)
		if len(src) < 8*words {
			return nil, nil, fmt.Errorf("vector: truncated mask")
		}
		v.Valid.words = make([]uint64, words)
		v.Valid.used = true
		for w := 0; w < words; w++ {
			v.Valid.words[w] = binary.LittleEndian.Uint64(src[8*w:])
		}
		src = src[8*words:]
	}
	switch t {
	case types.Boolean:
		if len(src) < n {
			return nil, nil, fmt.Errorf("vector: truncated bool payload")
		}
		for i := 0; i < n; i++ {
			v.Bools[i] = src[i] != 0
		}
		src = src[n:]
	case types.Integer:
		if len(src) < 4*n {
			return nil, nil, fmt.Errorf("vector: truncated int32 payload")
		}
		for i := 0; i < n; i++ {
			v.I32[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
		src = src[4*n:]
	case types.BigInt, types.Timestamp:
		if len(src) < 8*n {
			return nil, nil, fmt.Errorf("vector: truncated int64 payload")
		}
		for i := 0; i < n; i++ {
			v.I64[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
		src = src[8*n:]
	case types.Double:
		if len(src) < 8*n {
			return nil, nil, fmt.Errorf("vector: truncated double payload")
		}
		for i := 0; i < n; i++ {
			v.F64[i] = floatFromBits(int64(binary.LittleEndian.Uint64(src[8*i:])))
		}
		src = src[8*n:]
	case types.Varchar:
		for i := 0; i < n; i++ {
			l, k := binary.Uvarint(src)
			if k <= 0 || uint64(len(src)-k) < l {
				return nil, nil, fmt.Errorf("vector: truncated string payload")
			}
			v.Str[i] = string(src[k : k+int(l)])
			src = src[k+int(l):]
		}
	case types.Null:
	default:
		return nil, nil, fmt.Errorf("vector: unknown type tag %d", t)
	}
	return v, src, nil
}

// EncodeChunk appends the serialized chunk (column count + vectors).
func EncodeChunk(dst []byte, c *Chunk) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Cols)))
	for _, col := range c.Cols {
		dst = EncodeVector(dst, col)
	}
	return dst
}

// DecodeChunk parses one chunk from src, returning it and the rest.
func DecodeChunk(src []byte) (*Chunk, []byte, error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("chunk: truncated header")
	}
	nCols := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	c := &Chunk{Cols: make([]*Vector, nCols)}
	for i := 0; i < nCols; i++ {
		v, rest, err := DecodeVector(src)
		if err != nil {
			return nil, nil, err
		}
		c.Cols[i] = v
		src = rest
	}
	if nCols > 0 {
		c.n = c.Cols[0].Len()
	}
	return c, src, nil
}

func int64Bits(f float64) uint64    { return math.Float64bits(f) }
func floatFromBits(b int64) float64 { return math.Float64frombits(uint64(b)) }
