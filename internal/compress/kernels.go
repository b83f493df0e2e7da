package compress

import (
	"encoding/binary"
	"fmt"
)

// Selection kernels: evaluate a comparison predicate directly over a
// CompressInt64 payload, producing a per-row match vector without
// materializing the column. Frame-of-reference payloads rewrite the
// constant into the delta domain once and compare the packed offsets
// unsigned; RLE payloads compare once per run; raw payloads scan the
// stored words. DEFLATE schemes decline (ok=false) — entropy-coded
// buffers have no cheap per-row access — and callers fall back to
// decompression.
//
// All kernels intersect: they only ever clear bits of match, never set
// them, so a caller can AND several predicates into one vector. On
// ok=false the contents of match are unspecified; evaluate into a
// scratch vector and intersect only on success.

// CmpOp is the comparison operator a selection kernel applies,
// value-versus-constant.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// OpHolds reports whether op accepts a comparison outcome cmp, where
// cmp is negative/zero/positive for value less-than/equal/greater-than
// the constant. It is how callers apply a CmpOp to domains the kernels
// do not handle natively (strings, total-ordered floats).
func OpHolds(op CmpOp, cmp int) bool {
	switch op {
	case CmpEq:
		return cmp == 0
	case CmpNe:
		return cmp != 0
	case CmpLt:
		return cmp < 0
	case CmpLe:
		return cmp <= 0
	case CmpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

func holdsI64(op CmpOp, v, c int64) bool {
	switch op {
	case CmpEq:
		return v == c
	case CmpNe:
		return v != c
	case CmpLt:
		return v < c
	case CmpLe:
		return v <= c
	case CmpGt:
		return v > c
	default:
		return v >= c
	}
}

func holdsU64(op CmpOp, v, c uint64) bool {
	switch op {
	case CmpEq:
		return v == c
	case CmpNe:
		return v != c
	case CmpLt:
		return v < c
	case CmpLe:
		return v <= c
	case CmpGt:
		return v > c
	default:
		return v >= c
	}
}

// lightHeader parses the prefix every light payload (raw, RLE, FOR)
// shares: the scheme tag and the row count, followed by the body. A raw
// body must hold the 8 bytes of every row it declares.
func lightHeader(data []byte) (scheme byte, n uint64, body []byte, err error) {
	if len(data) == 0 {
		return 0, 0, nil, fmt.Errorf("compress: empty buffer")
	}
	switch data[0] {
	case schemeRaw, schemeRLE, schemeFOR:
	default:
		return 0, 0, nil, fmt.Errorf("compress: scheme tag %d is not a light scheme", data[0])
	}
	n, k := binary.Uvarint(data[1:])
	if k <= 0 {
		return 0, 0, nil, fmt.Errorf("compress: bad header")
	}
	body = data[1+k:]
	if data[0] == schemeRaw && n > uint64(len(body))/8 {
		return 0, 0, nil, fmt.Errorf("compress: raw buffer truncated")
	}
	return data[0], n, body, nil
}

// forFrame parses a FOR body of n rows into its minimum, bit width and
// packed deltas, checking the deltas fit the buffer.
func forFrame(body []byte, n uint64) (minV int64, width int, packed []byte, err error) {
	if n == 0 {
		return 0, 0, nil, nil
	}
	minV, k := binary.Varint(body)
	if k <= 0 || len(body) <= k {
		return 0, 0, nil, fmt.Errorf("compress: FOR frame truncated")
	}
	width = int(body[k])
	packed = body[k+1:]
	if width > 64 || width > 0 && n > uint64(len(packed))*8/uint64(width) {
		return 0, 0, nil, fmt.Errorf("compress: FOR payload truncated")
	}
	return minV, width, packed, nil
}

// nextRun parses one (length, value) run off an RLE body.
func nextRun(body []byte) (runLen uint64, val int64, rest []byte, ok bool) {
	runLen, k1 := binary.Uvarint(body)
	if k1 <= 0 {
		return 0, 0, nil, false
	}
	val, k2 := binary.Varint(body[k1:])
	if k2 <= 0 {
		return 0, 0, nil, false
	}
	return runLen, val, body[k1+k2:], true
}

// forDelta extracts the width-bit field starting at bitPos from the
// LSB-first packed stream — one 64-bit load plus shift/mask instead of
// a per-bit walk. Callers guarantee the field lies inside packed (the
// forFrame length check).
func forDelta(packed []byte, bitPos, width int) uint64 {
	byteOff := bitPos >> 3
	shift := uint(bitPos & 7)
	var w uint64
	if byteOff+8 <= len(packed) {
		w = binary.LittleEndian.Uint64(packed[byteOff:])
	} else {
		// Tail: fewer than 8 bytes remain, and they hold every bit of
		// the field, so assemble what is there.
		for j := len(packed) - 1; j >= byteOff; j-- {
			w = w<<8 | uint64(packed[j])
		}
	}
	v := w >> shift
	if got := 64 - int(shift); width > got {
		// The field spills into a 9th byte (width close to 64 with a
		// nonzero shift); it exists because the field fits in packed.
		v |= uint64(packed[byteOff+8]) << uint(got)
	}
	if width < 64 {
		v &= (uint64(1) << uint(width)) - 1
	}
	return v
}

// selectRuns clears match over every run of an RLE body whose value keep
// rejects; the runs must cover exactly len(match) rows. ok=false from
// keep declines the payload.
func selectRuns(body []byte, match []bool, keep func(int64) (keep, ok bool)) bool {
	n := uint64(len(match))
	for at := uint64(0); at < n; {
		runLen, val, rest, ok := nextRun(body)
		if !ok || runLen > n-at {
			return false
		}
		// One decision covers the whole run.
		k, ok := keep(val)
		if !ok {
			return false
		}
		if !k {
			clear(match[at : at+runLen])
		}
		body, at = rest, at+runLen
	}
	return true
}

// SelectInt64 intersects match with the predicate "value op c" over a
// CompressInt64 payload. match must cover the payload's row count.
func SelectInt64(data []byte, op CmpOp, c int64, match []bool) bool {
	scheme, n, body, err := lightHeader(data)
	if err != nil || n > uint64(len(match)) {
		return false
	}
	match = match[:n]
	switch scheme {
	case schemeRaw:
		for i := range match {
			if match[i] && !holdsI64(op, int64(binary.LittleEndian.Uint64(body[8*i:])), c) {
				match[i] = false
			}
		}
		return true
	case schemeRLE:
		return selectRuns(body, match, func(v int64) (bool, bool) { return holdsI64(op, v, c), true })
	default:
		return selectFOR(body, op, c, match)
	}
}

func selectFOR(body []byte, op CmpOp, c int64, match []bool) bool {
	minV, width, packed, err := forFrame(body, uint64(len(match)))
	if err != nil {
		return false
	}
	if width == 0 {
		// Constant column: one comparison decides every row.
		if !holdsI64(op, minV, c) {
			clear(match)
		}
		return true
	}
	// Rewrite c into the delta domain: v = minV + delta with delta in
	// [0, maxDelta], so "v op c" becomes an unsigned comparison of the
	// packed deltas against c-minV — unless c falls outside the frame,
	// in which case the header alone answers for every row.
	if c < minV {
		// Every value is >= minV > c.
		switch op {
		case CmpEq, CmpLt, CmpLe:
			clear(match)
		}
		return true
	}
	maxDelta := ^uint64(0)
	if width < 64 {
		maxDelta = (uint64(1) << uint(width)) - 1
	}
	// Exact even when c-minV overflows int64: two's-complement
	// subtraction yields the true unsigned difference for c >= minV.
	cDelta := uint64(c) - uint64(minV)
	if cDelta > maxDelta {
		// Every value is <= minV+maxDelta < c.
		switch op {
		case CmpEq, CmpGt, CmpGe:
			clear(match)
		}
		return true
	}
	for i := range match {
		if match[i] && !holdsU64(op, forDelta(packed, i*width, width), cDelta) {
			match[i] = false
		}
	}
	return true
}

// SelectInt64In intersects match with per-value membership: row i
// survives iff member[v_i]. Values must index member — the dictionary
// code case, where the predicate was evaluated once per unique string
// and the packed code array is scanned without decoding. Out-of-range
// values decline (corrupt payload; the decode path reports it).
func SelectInt64In(data []byte, member []bool, match []bool) bool {
	scheme, n, body, err := lightHeader(data)
	if err != nil || n > uint64(len(match)) {
		return false
	}
	match = match[:n]
	in := func(v int64) (bool, bool) {
		if v < 0 || v >= int64(len(member)) {
			return false, false
		}
		return member[v], true
	}
	switch scheme {
	case schemeRaw:
		for i := range match {
			keep, ok := in(int64(binary.LittleEndian.Uint64(body[8*i:])))
			if !ok {
				return false
			}
			match[i] = match[i] && keep
		}
		return true
	case schemeRLE:
		return selectRuns(body, match, in)
	}
	minV, width, packed, err := forFrame(body, n)
	if err != nil {
		return false
	}
	for i := range match {
		keep, ok := in(minV + int64(forDelta(packed, i*width, width)))
		if !ok {
			return false
		}
		match[i] = match[i] && keep
	}
	return true
}

// GatherInt64 decodes only the rows listed in sel (ascending row
// indexes into the payload) into out[:len(sel)] — the late-
// materialization counterpart of the selection kernels. DEFLATE
// declines.
func GatherInt64(data []byte, sel []int, out []int64) bool {
	if len(sel) == 0 {
		return true
	}
	if len(out) < len(sel) {
		return false
	}
	scheme, n, body, err := lightHeader(data)
	return err == nil && gather(scheme, n, body, sel, out[:len(sel)]) == nil
}

// gather writes row sel[i] of a light payload's body into out[i], or
// row i when sel is nil: a full decode is a gather over every row. Raw
// payloads read the selected words, FOR payloads extract each bit field
// with one 64-bit load, RLE payloads make one forward pass over the
// runs.
func gather(scheme byte, n uint64, body []byte, sel []int, out []int64) error {
	if len(out) == 0 {
		return nil
	}
	if last := uint64(row(sel, len(out)-1)); last >= n {
		return fmt.Errorf("compress: row %d of a %d-row payload", last, n)
	}
	switch scheme {
	case schemeRaw:
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(body[8*row(sel, i):]))
		}
	case schemeRLE:
		p := 0
		for end := uint64(0); p < len(out); {
			runLen, val, rest, ok := nextRun(body)
			if !ok || runLen > n-end {
				return fmt.Errorf("compress: RLE runs truncated or past the declared length")
			}
			body, end = rest, end+runLen
			for ; p < len(out) && uint64(row(sel, p)) < end; p++ {
				out[p] = val
			}
		}
	default:
		minV, width, packed, err := forFrame(body, n)
		if err != nil {
			return err
		}
		for i := range out {
			out[i] = minV + int64(forDelta(packed, row(sel, i)*width, width))
		}
	}
	return nil
}

// row is the i-th row of a selection; a nil selection is every row.
func row(sel []int, i int) int {
	if sel == nil {
		return i
	}
	return sel[i]
}

// Int64Count returns the number of values in a light payload without
// decoding it.
func Int64Count(data []byte) (int, bool) {
	_, n, _, err := lightHeader(data)
	return int(n), err == nil
}
