package extsort

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/vector"
)

// Normalized keys: a row's sort keys are encoded once into a fixed-width
// byte string whose bytes.Compare order is the sort order, so the run
// sort, the loser tree and the partition seeks compare bytes instead of
// re-dispatching on column type per comparison (CompareRows stays as
// the reference the tests hold this encoding to).
//
// One encoded row is its key segments followed by an 8-byte big-endian
// ordinal (chunk<<32 | row within the sorter's buffer): rows equal on
// every key order by arrival, so the unstable run sort reproduces a
// stable sort. A key segment is one NULL byte then the value bytes:
//
//	NULL byte   1 for a value; for NULL 0 under NullsFirst, else 2, with
//	            zero value bytes — independent of Desc
//	BOOLEAN     1 byte, 0 or 1
//	INTEGER     4 bytes big-endian, sign bit flipped
//	BIGINT, TIMESTAMP
//	            8 bytes big-endian, sign bit flipped
//	DOUBLE      8 bytes big-endian in the types.CompareFloat order: -0
//	            folded into +0, every NaN to all ones, negatives
//	            inverted, sign bit set on the rest
//	VARCHAR     the first varcharPrefix bytes zero-padded, then one byte
//	            min(len, varcharPrefix+1); two strings longer than the
//	            prefix that agree on it tie here and fall back to a full
//	            compare, everything else is decided by the bytes
//	Desc        inverts the value bytes (never the NULL byte)

// varcharPrefix is how many leading bytes of a VARCHAR key are encoded;
// with the NULL and length bytes the segment is 16 bytes.
const varcharPrefix = 14

// ordinalBytes is the width of the arrival ordinal closing each row.
const ordinalBytes = 8

// keyCol is one key's segment of the encoded row.
type keyCol struct {
	col      int // chunk column
	typ      types.Type
	off      int // offset of the segment's NULL byte
	end      int // offset past the segment
	desc     bool
	nullByte byte
}

// longMark is the length byte of a VARCHAR value that overflows the
// prefix: segments equal through it need the full compare.
func (k *keyCol) longMark() byte {
	if k.desc {
		return ^byte(varcharPrefix + 1)
	}
	return varcharPrefix + 1
}

// keyLayout is the encoded-row format for one (column types, keys) pair
// — the same for every sorter, run and cursor of a merge, so their keys
// compare with each other. It is immutable apart from the fallback
// counter and shared by the goroutines of a partitioned merge.
type keyLayout struct {
	cols   []keyCol
	strs   []int // indexes into cols of the VARCHAR keys, ascending
	width  int   // key bytes per row
	stride int   // width + ordinalBytes

	// fallbacks counts comparisons that tied on a VARCHAR prefix and
	// compared the full strings.
	fallbacks atomic.Int64
}

func newKeyLayout(colTypes []types.Type, keys []Key) *keyLayout {
	l := &keyLayout{cols: make([]keyCol, len(keys))}
	for i, k := range keys {
		kc := keyCol{col: k.Col, typ: colTypes[k.Col], off: l.width, desc: k.Desc, nullByte: 2}
		if k.NullsFirst {
			kc.nullByte = 0
		}
		switch kc.typ {
		case types.Boolean:
			kc.end = kc.off + 2
		case types.Integer:
			kc.end = kc.off + 5
		case types.Varchar:
			kc.end = kc.off + varcharPrefix + 2
			l.strs = append(l.strs, i)
		case types.BigInt, types.Timestamp, types.Double:
			kc.end = kc.off + 9
		default:
			kc.end = kc.off + 1 // NULL-typed column: the NULL byte alone
		}
		l.cols[i] = kc
		l.width = kc.end
	}
	l.stride = l.width + ordinalBytes
	return l
}

// sortBytesPerRow is what sorting a buffered row costs on top of its
// column bytes: the encoded row, and for VARCHAR keys the index entry a
// bucket of prefix ties is comparison-sorted through.
func (l *keyLayout) sortBytesPerRow() int64 {
	if len(l.strs) > 0 {
		return int64(l.stride) + 4
	}
	return int64(l.stride)
}

// prefixWidth is the width of the first nkeys key segments.
func (l *keyLayout) prefixWidth(nkeys int) int {
	if nkeys >= len(l.cols) {
		return l.width
	}
	return l.cols[nkeys].off
}

// encodeChunk writes the encoded rows of c to dst (c.Len()*stride
// bytes), a column at a time; ordinals count from chunkIdx<<32.
//
//quack:hotpath
func (l *keyLayout) encodeChunk(dst []byte, c *vector.Chunk, chunkIdx int) {
	n := c.Len()
	for i := range l.cols {
		l.encodeCol(dst, &l.cols[i], c.Cols[l.cols[i].col], n)
	}
	ord := uint64(chunkIdx) << 32
	for r, p := 0, l.width; r < n; r, p = r+1, p+l.stride {
		binary.BigEndian.PutUint64(dst[p:p+8], ord+uint64(r))
	}
}

// encodeCol writes one key segment for rows [0,n) of v.
//
//quack:hotpath
func (l *keyLayout) encodeCol(dst []byte, k *keyCol, v *vector.Vector, n int) {
	var inv uint64
	if k.desc {
		inv = ^uint64(0)
	}
	stride := l.stride
	switch k.typ {
	case types.Boolean:
		for r, p := 0, k.off; r < n; r, p = r+1, p+stride {
			var b byte
			if v.Bools[r] {
				b = 1
			}
			dst[p], dst[p+1] = 1, b^byte(inv)
		}
	case types.Integer:
		for r, p := 0, k.off; r < n; r, p = r+1, p+stride {
			dst[p] = 1
			binary.BigEndian.PutUint32(dst[p+1:p+5], uint32(v.I32[r])^(1<<31)^uint32(inv))
		}
	case types.BigInt, types.Timestamp:
		for r, p := 0, k.off; r < n; r, p = r+1, p+stride {
			dst[p] = 1
			binary.BigEndian.PutUint64(dst[p+1:p+9], uint64(v.I64[r])^(1<<63)^inv)
		}
	case types.Double:
		for r, p := 0, k.off; r < n; r, p = r+1, p+stride {
			dst[p] = 1
			binary.BigEndian.PutUint64(dst[p+1:p+9], floatKey(v.F64[r])^inv)
		}
	case types.Varchar:
		for r, p := 0, k.off; r < n; r, p = r+1, p+stride {
			seg := dst[p : p+varcharPrefix+2]
			s := v.Str[r]
			seg[0] = 1
			m := copy(seg[1:1+varcharPrefix], s)
			clear(seg[1+m : 1+varcharPrefix])
			seg[1+varcharPrefix] = byte(min(len(s), varcharPrefix+1))
			if k.desc {
				for i := 1; i < len(seg); i++ {
					seg[i] = ^seg[i]
				}
			}
		}
	default: // NULL-typed key: the NULL byte is the whole segment
		for r, p := 0, k.off; r < n; r, p = r+1, p+stride {
			dst[p] = 1
		}
	}
	if !v.Valid.AllValid() {
		for r, p := 0, k.off; r < n; r, p = r+1, p+stride {
			if v.IsNull(r) {
				dst[p] = k.nullByte
				clear(dst[p+1 : p+k.end-k.off])
			}
		}
	}
}

// floatKey maps a double to the uint64 whose unsigned order is
// types.CompareFloat's: -0 equals +0, NaN (any payload) is greatest.
func floatKey(f float64) uint64 {
	if f != f {
		return ^uint64(0)
	}
	if f == 0 {
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// compare orders two encoded rows on their first nkeys keys: ka/kb are
// the rows' key bytes, (ca, ra) and (cb, rb) the chunk rows they encode,
// read only when a VARCHAR prefix ties. The arrival ordinal is not
// compared.
//
//quack:hotpath
func (l *keyLayout) compare(ka []byte, ca *vector.Chunk, ra int, kb []byte, cb *vector.Chunk, rb int, nkeys int) int {
	start := 0
	for _, si := range l.strs {
		if si >= nkeys {
			break
		}
		k := &l.cols[si]
		if c := bytes.Compare(ka[start:k.end], kb[start:k.end]); c != 0 {
			return c
		}
		if ka[k.end-1] == k.longMark() && ka[k.off] == 1 {
			l.fallbacks.Add(1)
			c := strings.Compare(ca.Cols[k.col].Str[ra], cb.Cols[k.col].Str[rb])
			if c != 0 {
				if k.desc {
					return -c
				}
				return c
			}
		}
		start = k.end
	}
	end := l.prefixWidth(nkeys)
	return bytes.Compare(ka[start:end], kb[start:end])
}

// keyedRows is a handful of rows kept with their encoded keys: a run's
// boundary footer, the partition samples, the range bounds.
type keyedRows struct {
	l     *keyLayout
	chunk *vector.Chunk
	keys  []byte // chunk.Len() * l.width
}

func newKeyedRows(l *keyLayout, colTypes []types.Type) *keyedRows {
	return &keyedRows{l: l, chunk: vector.NewChunk(colTypes)}
}

func (k *keyedRows) Len() int { return k.chunk.Len() }

// add appends row r of c, whose encoded key is key.
func (k *keyedRows) add(c *vector.Chunk, r int, key []byte) {
	k.chunk.AppendRowFrom(c, r)
	k.keys = append(k.keys, key[:k.l.width]...)
}

func (k *keyedRows) key(i int) []byte { return k.keys[i*k.l.width : (i+1)*k.l.width] }
