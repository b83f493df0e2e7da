package types

import (
	"encoding/binary"
	"math"
)

// EncodeValueKey appends the canonical key encoding of one non-NULL
// boxed value: a validity byte (always 1) then BOOLEAN 1 B / INTEGER 4 B
// / BIGINT, TIMESTAMP, DOUBLE 8 B little-endian (DOUBLEs through
// CanonF64Bits) / VARCHAR a 4-byte length and the bytes. Values that
// compare equal encode equally. It is the per-value layout of the
// executor's group keys, so the vectorized engine and the row-engine
// oracle build identical DISTINCT sets.
func EncodeValueKey(buf []byte, v Value) []byte {
	buf = append(buf, 1)
	switch v.Type {
	case Boolean:
		if v.Bool {
			return append(buf, 1)
		}
		return append(buf, 0)
	case Integer:
		return binary.LittleEndian.AppendUint32(buf, uint32(int32(v.I64)))
	case BigInt, Timestamp:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.I64))
	case Double:
		return binary.LittleEndian.AppendUint64(buf, CanonF64Bits(v.F64))
	case Varchar:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Str)))
		return append(buf, v.Str...)
	}
	return buf
}

// DecodeValueKey decodes one value previously encoded by EncodeValueKey.
// DISTINCT sets never hold NULLs, so the validity byte is always 1.
// Untrusted bytes go through ValidValueKey first.
func DecodeValueKey(key string, t Type) Value {
	b := key[1:] // skip the validity marker
	switch t {
	case Boolean:
		return NewBool(b[0] != 0)
	case Integer:
		return NewInt(int32(binary.LittleEndian.Uint32([]byte(b))))
	case BigInt:
		return NewBigInt(int64(binary.LittleEndian.Uint64([]byte(b))))
	case Timestamp:
		return NewTimestamp(int64(binary.LittleEndian.Uint64([]byte(b))))
	case Double:
		return NewDouble(math.Float64frombits(binary.LittleEndian.Uint64([]byte(b))))
	case Varchar:
		return NewVarchar(b[4:])
	}
	return NewNull(t)
}

// ValidValueKey reports whether key is a well-formed EncodeValueKey
// encoding of a non-NULL value of type t. DISTINCT sets read back from a
// spilled run are checked with it before DecodeValueKey ever sees them.
func ValidValueKey(key []byte, t Type) bool {
	if len(key) < 1 || key[0] != 1 {
		return false
	}
	switch t {
	case Boolean:
		return len(key) == 2
	case Integer:
		return len(key) == 5
	case BigInt, Timestamp, Double:
		return len(key) == 9
	case Varchar:
		return len(key) >= 5 && int(binary.LittleEndian.Uint32(key[1:5])) == len(key)-5
	}
	return false
}
