package exec

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/types"
	"repro/internal/vector"
)

// encodeKeyRow appends a canonical byte encoding of row r across the
// given vectors to buf. Rows that compare equal encode equally (DOUBLEs
// through types.CanonF64Bits); a NULL marker keeps NULLs distinct from every
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
			buf = binary.LittleEndian.AppendUint64(buf, types.CanonF64Bits(v.F64[r]))
		case types.Varchar:
			s := v.Str[r]
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf
}

var errCorruptGroupKey = errors.New("agg spill: corrupt group key")

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
