package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/compress"
	"repro/internal/types"
	"repro/internal/vector"
)

// Per-segment compressed column payloads. A checkpoint serializes every
// column segment by segment with the light typed encodings (FOR/RLE for
// the int64 family, dictionary coding for strings); a cold open keeps
// the payloads compressed in memory and decodes a segment only when a
// scan actually has to materialize it. Pushed predicates are evaluated
// directly on the encoded form first (encRefutes), so a selective scan
// skips refuted segments without ever touching their bytes.
//
// Payload layout:
//
//	kind u8 | n uvarint | nullFlag u8 [| (n+7)/8 validity bytes] | body
//
// The validity bytes are present only when the segment has NULLs (bit
// set = valid). NULL slots are encoded as the segment's first non-null
// value so they never widen the compressed-domain bounds; decode
// restores NULL-ness from the validity bytes.
const (
	segEncInt64  byte = iota // BigInt/Timestamp: CompressInt64 body
	segEncInt32              // Integer: CompressInt64 body (widened)
	segEncDouble             // Double: 8n little-endian IEEE bits
	segEncBool               // Boolean: (n+7)/8 packed bits
	segEncDict               // Varchar: AppendStringDict body
)

func floatBits(f float64) int64     { return int64(math.Float64bits(f)) }
func floatFromBits(b int64) float64 { return math.Float64frombits(uint64(b)) }

// encodeSegColumn serializes the first n rows of v.
func encodeSegColumn(v *vector.Vector, n int) []byte {
	out := make([]byte, 0, 64)
	var kind byte
	switch v.Type {
	case types.BigInt, types.Timestamp:
		kind = segEncInt64
	case types.Integer:
		kind = segEncInt32
	case types.Double:
		kind = segEncDouble
	case types.Boolean:
		kind = segEncBool
	case types.Varchar:
		kind = segEncDict
	default:
		panic(fmt.Sprintf("table: cannot encode segment of type %v", v.Type))
	}
	out = append(out, kind)
	out = binary.AppendUvarint(out, uint64(n))

	hasNull := false
	for i := 0; i < n; i++ {
		if v.IsNull(i) {
			hasNull = true
			break
		}
	}
	if hasNull {
		out = append(out, 1)
		mask := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				mask[i>>3] |= 1 << uint(i&7)
			}
		}
		out = append(out, mask...)
	} else {
		out = append(out, 0)
	}

	switch kind {
	case segEncInt64, segEncInt32:
		vals := make([]int64, n)
		var fill int64
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				if kind == segEncInt32 {
					fill = int64(v.I32[i])
				} else {
					fill = v.I64[i]
				}
				break
			}
		}
		for i := 0; i < n; i++ {
			switch {
			case v.IsNull(i):
				vals[i] = fill
			case kind == segEncInt32:
				vals[i] = int64(v.I32[i])
			default:
				vals[i] = v.I64[i]
			}
		}
		out = append(out, compress.CompressInt64(vals, compress.Light)...)
	case segEncDouble:
		for i := 0; i < n; i++ {
			out = binary.LittleEndian.AppendUint64(out, uint64(floatBits(v.F64[i])))
		}
	case segEncBool:
		body := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if !v.IsNull(i) && v.Bools[i] {
				body[i>>3] |= 1 << uint(i&7)
			}
		}
		out = append(out, body...)
	case segEncDict:
		strs := make([]string, n)
		var fill string
		for i := 0; i < n; i++ {
			if !v.IsNull(i) {
				fill = v.Str[i]
				break
			}
		}
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				strs[i] = fill
			} else {
				strs[i] = v.Str[i]
			}
		}
		out = compress.AppendStringDict(out, compress.EncodeStrings(strs))
	}
	return out
}

// segEncHeader parses the shared prefix: row count, validity bytes (nil
// when all valid) and the body. It is where a payload's bytes enter the
// scan, so the row count is bounded by SegRows before anything is sized
// from it.
func segEncHeader(data []byte) (kind byte, n int, mask, body []byte, err error) {
	if len(data) < 2 {
		return 0, 0, nil, nil, fmt.Errorf("table: segment payload truncated")
	}
	kind = data[0]
	un, k := binary.Uvarint(data[1:])
	if k <= 0 {
		return 0, 0, nil, nil, fmt.Errorf("table: segment payload header")
	}
	if un > SegRows {
		return 0, 0, nil, nil, fmt.Errorf("table: segment payload declares %d rows, a segment holds %d", un, SegRows)
	}
	n = int(un)
	rest := data[1+k:]
	if len(rest) < 1 {
		return 0, 0, nil, nil, fmt.Errorf("table: segment payload truncated")
	}
	nullFlag := rest[0]
	rest = rest[1:]
	if nullFlag == 1 {
		mb := (n + 7) / 8
		if len(rest) < mb {
			return 0, 0, nil, nil, fmt.Errorf("table: segment validity truncated")
		}
		mask = rest[:mb]
		rest = rest[mb:]
	}
	return kind, n, mask, rest, nil
}

// segRowIDs is every row of a segment in order: decoding a whole
// payload is a gather over its first n entries.
var segRowIDs = func() []int {
	ids := make([]int, SegRows)
	for i := range ids {
		ids[i] = i
	}
	return ids
}()

// gatherSeg decodes the rows sel (ascending) of an encoded segment
// payload into dst, or every row when sel is nil — the one decoder of a
// checkpointed segment, for the rows a scan selected and for a segment
// decoded whole (into a vector with capacity for SegRows rows, so
// in-place tail appends can continue into it). codes is scratch for
// SegRows int64 values; nil allocates what the call needs.
func gatherSeg(data []byte, typ types.Type, sel []int, dst *vector.Vector, codes []int64) error {
	kind, n, mask, body, err := segEncHeader(data)
	if err != nil {
		return err
	}
	if sel == nil {
		sel = segRowIDs[:n]
	}
	m := len(sel)
	if m > 0 && sel[m-1] >= n {
		return fmt.Errorf("table: row %d of a %d-row segment payload", sel[m-1], n)
	}
	if pt, err := segPayloadType(kind); err != nil || pt != typ && (pt != types.BigInt || typ != types.Timestamp) {
		return fmt.Errorf("table: %v payload (encoding %d) for a %v column", pt, kind, typ)
	}
	dst.SetLen(m)
	switch kind {
	case segEncDouble:
		if len(body) < 8*n {
			return fmt.Errorf("table: segment double payload truncated")
		}
		for k, r := range sel {
			dst.F64[k] = floatFromBits(int64(binary.LittleEndian.Uint64(body[8*r:])))
		}
	case segEncBool:
		if len(body) < (n+7)/8 {
			return fmt.Errorf("table: segment bool payload truncated")
		}
		for k, r := range sel {
			dst.Bools[k] = body[r>>3]&(1<<uint(r&7)) != 0
		}
	default: // the int64 family and dictionary codes: a CompressInt64 payload
		ints := body
		var values []string
		if kind == segEncDict {
			if values, ints, _, err = compress.DecodeStringDictValues(body); err != nil {
				return fmt.Errorf("table: segment dict payload: %w", err)
			}
		}
		if kind == segEncInt64 {
			codes = dst.I64
		} else if codes == nil {
			codes = make([]int64, m)
		}
		if c, ok := compress.Int64Count(ints); !ok || c != n {
			return fmt.Errorf("table: segment int payload does not hold its %d rows", n)
		}
		if !compress.GatherInt64(ints, sel, codes) {
			return fmt.Errorf("table: segment int payload corrupt")
		}
		switch kind {
		case segEncInt32:
			for k, c := range codes[:m] {
				dst.I32[k] = int32(c)
			}
		case segEncDict:
			for k, c := range codes[:m] {
				if c < 0 || c >= int64(len(values)) {
					return fmt.Errorf("table: dict index out of range")
				}
				dst.Str[k] = values[c]
			}
		}
	}
	if mask != nil {
		for k, r := range sel {
			if mask[r>>3]&(1<<uint(r&7)) == 0 {
				dst.SetNull(k)
			}
		}
	}
	return nil
}

// encRefutes evaluates one pushed conjunct directly over a compressed
// segment payload and reports whether it proves no row can match —
// dictionary membership for string equality, FOR-header / RLE-run
// bounds for the int64 family — all without decompressing the segment.
// Encoded payloads are immutable (any in-place write materializes the
// segment first), so they cover every version a snapshot can see.
func encRefutes(data []byte, typ types.Type, f ZoneFilter) bool {
	kind, n, mask, body, err := segEncHeader(data)
	if err != nil || n == 0 {
		return false
	}
	validCount := n
	if mask != nil {
		validCount = 0
		for _, b := range mask {
			validCount += bits.OnesCount8(b)
		}
	}
	switch f.Op {
	case ZoneIsNull:
		return mask == nil // no validity bytes ⇒ no NULLs
	case ZoneNotNull:
		return validCount == 0
	}
	if f.Val.Null {
		return true
	}
	if validCount == 0 {
		return true // all NULL: no comparison passes
	}
	switch kind {
	case segEncInt64, segEncInt32:
		if f.Val.Type != types.Integer && f.Val.Type != types.BigInt && f.Val.Type != types.Timestamp {
			return false
		}
		lo, hi, ok := compress.Int64Bounds(body)
		if !ok {
			return false
		}
		c := f.Val.I64
		switch f.Op {
		case ZoneEq:
			return c < lo || c > hi
		case ZoneNe:
			return lo == hi && lo == c && mask == nil
		case ZoneLt:
			return lo >= c
		case ZoneLe:
			return lo > c
		case ZoneGt:
			return hi <= c
		case ZoneGe:
			return hi < c
		}
	case segEncDict:
		if f.Val.Type != types.Varchar {
			return false
		}
		values, _, _, err := compress.DecodeStringDictValues(body)
		if err != nil {
			return false
		}
		// NULL slots alias a real dictionary entry, so the dictionary is
		// a superset of the non-null values: "no entry satisfies the
		// predicate" proves no row does.
		c := f.Val.Str
		for _, s := range values {
			var sat bool
			switch f.Op {
			case ZoneEq:
				sat = s == c
			case ZoneNe:
				sat = s != c
			case ZoneLt:
				sat = s < c
			case ZoneLe:
				sat = s <= c
			case ZoneGt:
				sat = s > c
			case ZoneGe:
				sat = s >= c
			}
			if sat {
				return false
			}
		}
		return true
	}
	return false
}

// encSegBytes is the accounted footprint of an encoded payload.
func encSegBytes(data []byte) int64 { return int64(len(data)) }
