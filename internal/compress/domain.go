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
	scheme, n, body, err := lightHeader(data)
	if err != nil || n == 0 {
		return 0, 0, false
	}
	switch scheme {
	case schemeFOR:
		base, width, _, err := forFrame(body, n)
		if err != nil || width > 62 {
			return 0, 0, false
		}
		hi := base + (int64(1)<<uint(width) - 1)
		if hi < base {
			return 0, 0, false
		}
		return base, hi, true
	case schemeRLE:
		for seen := uint64(0); seen < n; {
			runLen, val, rest, ok := nextRun(body)
			if !ok {
				return 0, 0, false
			}
			if seen == 0 || val < minV {
				minV = val
			}
			if seen == 0 || val > maxV {
				maxV = val
			}
			body, seen = rest, seen+runLen
		}
		return minV, maxV, true
	default:
		for i := uint64(0); i < n; i++ {
			v := int64(binary.LittleEndian.Uint64(body[8*i:]))
			if i == 0 || v < minV {
				minV = v
			}
			if i == 0 || v > maxV {
				maxV = v
			}
		}
		return minV, maxV, true
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
	// Every value costs at least its length byte: a count the bytes
	// cannot back is rejected before anything is sized from it.
	if n > uint64(len(src)) {
		return nil, nil, nil, fmt.Errorf("compress: dict declares %d values in %d bytes", n, len(src))
	}
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
