package exec

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/types"
	"repro/internal/vector"
)

// canonNaNBits is the one bit pattern every NaN key is stored under.
var canonNaNBits = math.Float64bits(math.NaN())

// canonF64bits returns the key bits of a DOUBLE: the bit pattern shared
// by every value types.CompareFloat calls equal to f, so -0 and +0 are
// one key and every NaN payload is one key. Group keys, DISTINCT sets,
// hash-join build and probe keys and the row engine all encode DOUBLEs
// through it; the normalized sort keys (extsort) draw the same classes.
func canonF64bits(f float64) uint64 {
	switch {
	case f != f:
		return canonNaNBits
	case f == 0:
		return 0
	}
	return math.Float64bits(f)
}

// encodeKeyRow appends a canonical byte encoding of row r across the
// given vectors to buf. Rows that compare equal encode equally (DOUBLEs
// through canonF64bits); a NULL marker keeps NULLs distinct from every
// value (group-by treats NULLs as equal to each other, per SQL).
func encodeKeyRow(buf []byte, vecs []*vector.Vector, r int) []byte {
	for _, v := range vecs {
		if v.IsNull(r) {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		switch v.Type {
		case types.Boolean:
			if v.Bools[r] {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case types.Integer:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v.I32[r]))
		case types.BigInt, types.Timestamp:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I64[r]))
		case types.Double:
			buf = binary.LittleEndian.AppendUint64(buf, canonF64bits(v.F64[r]))
		case types.Varchar:
			s := v.Str[r]
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf
}

// encodeValueKey appends the canonical encoding of one non-NULL boxed
// value, matching encodeKeyRow's per-value layout (so the vectorized
// and row engines build identical DISTINCT sets).
func encodeValueKey(buf []byte, v types.Value) []byte {
	buf = append(buf, 1)
	switch v.Type {
	case types.Boolean:
		if v.Bool {
			return append(buf, 1)
		}
		return append(buf, 0)
	case types.Integer:
		return binary.LittleEndian.AppendUint32(buf, uint32(int32(v.I64)))
	case types.BigInt, types.Timestamp:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.I64))
	case types.Double:
		return binary.LittleEndian.AppendUint64(buf, canonF64bits(v.F64))
	case types.Varchar:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Str)))
		return append(buf, v.Str...)
	}
	return buf
}

// decodeValueKey decodes one value previously encoded by encodeValueKey
// / encodeKeyRow. DISTINCT sets never hold NULLs, so the validity byte
// is always 1.
func decodeValueKey(key string, t types.Type) types.Value {
	b := key[1:] // skip the validity marker
	switch t {
	case types.Boolean:
		return types.NewBool(b[0] != 0)
	case types.Integer:
		return types.NewInt(int32(binary.LittleEndian.Uint32([]byte(b))))
	case types.BigInt:
		return types.NewBigInt(int64(binary.LittleEndian.Uint64([]byte(b))))
	case types.Timestamp:
		return types.NewTimestamp(int64(binary.LittleEndian.Uint64([]byte(b))))
	case types.Double:
		return types.NewDouble(math.Float64frombits(binary.LittleEndian.Uint64([]byte(b))))
	case types.Varchar:
		return types.NewVarchar(b[4:])
	}
	return types.NewNull(t)
}

var errCorruptGroupKey = errors.New("agg spill: corrupt group key")

// validValueKey reports whether key is a well-formed encodeValueKey
// encoding of a non-NULL value of type t. DISTINCT sets read back from a
// spilled run are checked with it before decodeValueKey ever sees them.
func validValueKey(key []byte, t types.Type) bool {
	if len(key) < 1 || key[0] != 1 {
		return false
	}
	switch t {
	case types.Boolean:
		return len(key) == 2
	case types.Integer:
		return len(key) == 5
	case types.BigInt, types.Timestamp, types.Double:
		return len(key) == 9
	case types.Varchar:
		return len(key) >= 5 && int(binary.LittleEndian.Uint32(key[1:5])) == len(key)-5
	}
	return false
}

// decodeKeyRowInto decodes a group key produced by encodeKeyRow into row
// `row` of cols (one column per key value, already long enough) without
// boxing; the column types give the layout. Keys read back from a
// spilled run pass through here, so every length is checked.
func decodeKeyRowInto(key []byte, cols []*vector.Vector, row int) error {
	pos := 0
	for _, col := range cols {
		if pos >= len(key) {
			return errCorruptGroupKey
		}
		if key[pos] == 0 {
			col.SetNull(row)
			pos++
			continue
		}
		pos++
		rest := key[pos:]
		switch col.Type {
		case types.Boolean:
			if len(rest) < 1 {
				return errCorruptGroupKey
			}
			col.Bools[row] = rest[0] != 0
			pos++
		case types.Integer:
			if len(rest) < 4 {
				return errCorruptGroupKey
			}
			col.I32[row] = int32(binary.LittleEndian.Uint32(rest))
			pos += 4
		case types.BigInt, types.Timestamp:
			if len(rest) < 8 {
				return errCorruptGroupKey
			}
			col.I64[row] = int64(binary.LittleEndian.Uint64(rest))
			pos += 8
		case types.Double:
			if len(rest) < 8 {
				return errCorruptGroupKey
			}
			col.F64[row] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
			pos += 8
		case types.Varchar:
			if len(rest) < 4 {
				return errCorruptGroupKey
			}
			n := int(binary.LittleEndian.Uint32(rest))
			if n > len(rest)-4 {
				return errCorruptGroupKey
			}
			col.Str[row] = string(rest[4 : 4+n])
			pos += 4 + n
		default:
			return errCorruptGroupKey
		}
	}
	if pos != len(key) {
		return errCorruptGroupKey
	}
	return nil
}
