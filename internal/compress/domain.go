package compress

import (
	"encoding/binary"
	"fmt"
)

// Compressed-domain helpers: predicates over encoded buffers without
// materializing the values. Frame-of-reference payloads answer from the
// header alone (the stored minimum plus the bit width bounds every
// value); RLE payloads walk the run values without expanding them;
// dictionary-encoded strings answer membership and range questions from
// the dictionary without touching the packed index vector.

// Int64Bounds returns a conservative [min, max] interval covering every
// value of a CompressInt64 buffer, without decoding the values. ok is
// false when the scheme cannot be bounded cheaply (DEFLATE) or the
// buffer is empty/odd; callers must then fall back to decompression.
// The interval is a superset: for FOR it is the representable range of
// the bit width, which may be wider than the actual values.
func Int64Bounds(data []byte) (minV, maxV int64, ok bool) {
	if len(data) == 0 {
		return 0, 0, false
	}
	switch data[0] {
	case schemeFOR:
		body := data[1:]
		n, k := binary.Uvarint(body)
		if k <= 0 || n == 0 {
			return 0, 0, false
		}
		body = body[k:]
		base, k2 := binary.Varint(body)
		if k2 <= 0 || len(body) <= k2 {
			return 0, 0, false
		}
		width := int(body[k2])
		if width == 0 {
			return base, base, true
		}
		if width > 62 {
			return 0, 0, false
		}
		hi := base + (int64(1)<<uint(width) - 1)
		if hi < base {
			return 0, 0, false
		}
		return base, hi, true
	case schemeRLE:
		body := data[1:]
		n, k := binary.Uvarint(body)
		if k <= 0 || n == 0 {
			return 0, 0, false
		}
		body = body[k:]
		var seen uint64
		first := true
		for seen < n {
			runLen, k1 := binary.Uvarint(body)
			if k1 <= 0 {
				return 0, 0, false
			}
			body = body[k1:]
			val, k2 := binary.Varint(body)
			if k2 <= 0 {
				return 0, 0, false
			}
			body = body[k2:]
			if first {
				minV, maxV = val, val
				first = false
			} else {
				if val < minV {
					minV = val
				}
				if val > maxV {
					maxV = val
				}
			}
			seen += runLen
		}
		return minV, maxV, !first
	case schemeRaw:
		body := data[1:]
		n, k := binary.Uvarint(body)
		if k <= 0 || n == 0 || uint64(len(body)-k) < 8*n {
			return 0, 0, false
		}
		body = body[k:]
		for i := uint64(0); i < n; i++ {
			v := int64(binary.LittleEndian.Uint64(body[8*i:]))
			if i == 0 {
				minV, maxV = v, v
			} else {
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
			}
		}
		return minV, maxV, true
	default:
		return 0, 0, false
	}
}

// AppendStringDict serializes a dictionary-encoded string column:
// the dictionary values followed by the FOR/RLE-packed index vector.
func AppendStringDict(dst []byte, d StringDict) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.Values)))
	for _, s := range d.Values {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	idx := CompressInt64(d.Indexes, Light)
	dst = binary.AppendUvarint(dst, uint64(len(idx)))
	return append(dst, idx...)
}

// DecodeStringDictValues parses only the dictionary header of an
// AppendStringDict buffer — the unique values — returning them plus the
// still-encoded index payload. Membership and range predicates need
// nothing more, so the packed indexes stay compressed.
func DecodeStringDictValues(src []byte) (values []string, idxPayload []byte, rest []byte, err error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, nil, fmt.Errorf("compress: bad dict header")
	}
	src = src[k:]
	values = make([]string, n)
	for i := range values {
		l, k1 := binary.Uvarint(src)
		if k1 <= 0 || uint64(len(src)-k1) < l {
			return nil, nil, nil, fmt.Errorf("compress: dict value truncated")
		}
		values[i] = string(src[k1 : k1+int(l)])
		src = src[k1+int(l):]
	}
	il, k2 := binary.Uvarint(src)
	if k2 <= 0 || uint64(len(src)-k2) < il {
		return nil, nil, nil, fmt.Errorf("compress: dict indexes truncated")
	}
	return values, src[k2 : k2+int(il)], src[k2+int(il):], nil
}

// DecodeStringDict fully reverses AppendStringDict.
func DecodeStringDict(src []byte) (StringDict, []byte, error) {
	values, idxPayload, rest, err := DecodeStringDictValues(src)
	if err != nil {
		return StringDict{}, nil, err
	}
	indexes, err := DecompressInt64(idxPayload)
	if err != nil {
		return StringDict{}, nil, err
	}
	return StringDict{Values: values, Indexes: indexes}, rest, nil
}
