package table

import (
	"encoding/binary"
	"math"
	"strings"

	"repro/internal/compress"
	"repro/internal/types"
)

// Encoded execution: pushed exact conjuncts are evaluated directly over
// a cold segment's compressed payloads — dictionary membership decided
// once per unique string and applied to the packed code array, integer
// range predicates rewritten into the frame-of-reference delta domain,
// RLE runs decided with one comparison per run — and only the rows that
// survive are materialized (late materialization). The segment itself
// stays compressed: the gathered chunk is transient, so a selective
// scan no longer swaps whole decoded segments into memory.
//
// The path is engaged per segment: when no kernel applies and a
// projected column is still encoded, the segment is decoded and
// installed instead (segReader.read). Selection must be EXACT, not merely
// conservative: kernels drop rows before the row-level filter ever sees
// them, so a kernel that disagrees with the engine's comparison
// semantics (types.Compare / types.CompareFloat, NULL never matches a
// comparison) would change results. Inexact conjuncts must not set
// ZoneFilter.Exact; unsupported ones are simply not applied here and
// the downstream filter evaluates them on the gathered rows.

// cmpOpFor maps the comparison zone ops onto the kernel ops. Callers
// must exclude ZoneIsNull/ZoneNotNull first.
func cmpOpFor(op ZoneOp) compress.CmpOp {
	switch op {
	case ZoneEq:
		return compress.CmpEq
	case ZoneNe:
		return compress.CmpNe
	case ZoneLt:
		return compress.CmpLt
	case ZoneLe:
		return compress.CmpLe
	case ZoneGt:
		return compress.CmpGt
	default:
		return compress.CmpGe
	}
}

// int64Domain rewrites an int-family comparison constant into the
// column's int64 domain. Double constants (pushed only against INTEGER
// columns, whose values float64 represents exactly) translate by
// floor/ceil so the integer comparison is equivalent to the engine's
// promoted-to-float comparison; NaN/±Inf and out-of-range constants
// degenerate to match-all/match-none. ok=false declines the filter.
func int64Domain(f ZoneFilter) (c int64, op compress.CmpOp, all, none, ok bool) {
	op = cmpOpFor(f.Op)
	switch f.Val.Type {
	case types.Integer, types.BigInt, types.Timestamp:
		return f.Val.I64, op, false, false, true
	case types.Double:
		v := f.Val.F64
		// Under the engine's total FP order every finite value is less
		// than +Inf and NaN; greater than -Inf.
		if math.IsNaN(v) || math.IsInf(v, 1) {
			return constAgainstExtreme(op, true)
		}
		if math.IsInf(v, -1) {
			return constAgainstExtreme(op, false)
		}
		if v >= 9.223372036854775808e18 { // 2^63: beyond every int64
			return constAgainstExtreme(op, true)
		}
		if v < -9.223372036854775808e18 {
			return constAgainstExtreme(op, false)
		}
		if v == math.Trunc(v) {
			return int64(v), op, false, false, true
		}
		// Non-integral: no value is equal; order against the neighbors.
		switch op {
		case compress.CmpEq:
			return 0, op, false, true, true
		case compress.CmpNe:
			return 0, op, true, false, true
		case compress.CmpLt, compress.CmpLe:
			return int64(math.Floor(v)), compress.CmpLe, false, false, true
		default: // Gt, Ge
			return int64(math.Ceil(v)), compress.CmpGe, false, false, true
		}
	}
	return 0, op, false, false, false
}

// constAgainstExtreme answers "value op c" when c is above (high=true)
// or below every column value.
func constAgainstExtreme(op compress.CmpOp, high bool) (int64, compress.CmpOp, bool, bool, bool) {
	var matches bool // does every value satisfy the comparison?
	if high {
		matches = op == compress.CmpNe || op == compress.CmpLt || op == compress.CmpLe
	} else {
		matches = op == compress.CmpNe || op == compress.CmpGt || op == compress.CmpGe
	}
	if matches {
		return 0, op, true, false, true
	}
	return 0, op, false, true, true
}

// encSelect intersects match[:payload rows] with filter f evaluated
// over the encoded payload, under the engine's comparison semantics
// (total FP order, NULL never satisfies a comparison). Returns false —
// with match contents unspecified — when the payload cannot be handled;
// callers evaluate into a scratch vector and intersect on success.
func encSelect(data []byte, typ types.Type, f ZoneFilter, match []bool) bool {
	kind, n, mask, body, err := segEncHeader(data)
	if err != nil || n > len(match) {
		return false
	}
	validBit := func(i int) bool {
		return mask == nil || mask[i>>3]&(1<<uint(i&7)) != 0
	}
	switch f.Op {
	case ZoneIsNull:
		for i := 0; i < n; i++ {
			if match[i] && validBit(i) {
				match[i] = false
			}
		}
		return true
	case ZoneNotNull:
		if mask != nil {
			for i := 0; i < n; i++ {
				if match[i] && !validBit(i) {
					match[i] = false
				}
			}
		}
		return true
	}
	if f.Val.Null {
		// A comparison with NULL is never TRUE.
		for i := 0; i < n; i++ {
			match[i] = false
		}
		return true
	}
	switch kind {
	case segEncInt64, segEncInt32:
		if f.Val.Type == types.Double && kind != segEncInt32 {
			return false // float promotion rounds 64-bit values
		}
		c, op, all, none, ok := int64Domain(f)
		if !ok {
			return false
		}
		switch {
		case none:
			for i := 0; i < n; i++ {
				match[i] = false
			}
			return true
		case all:
			// Every non-null value matches; only the mask filters below.
		default:
			if !compress.SelectInt64(body, op, c, match[:n]) {
				return false
			}
		}
	case segEncDouble:
		var c float64
		switch f.Val.Type {
		case types.Double:
			c = f.Val.F64
		case types.Integer, types.BigInt, types.Timestamp:
			c = float64(f.Val.I64)
		default:
			return false
		}
		if len(body) < 8*n {
			return false
		}
		op := cmpOpFor(f.Op)
		for i := 0; i < n; i++ {
			if !match[i] {
				continue
			}
			v := floatFromBits(int64(binary.LittleEndian.Uint64(body[8*i:])))
			if !compress.OpHolds(op, types.CompareFloat(v, c)) {
				match[i] = false
			}
		}
	case segEncDict:
		if f.Val.Type != types.Varchar {
			return false
		}
		values, idxPayload, _, err := compress.DecodeStringDictValues(body)
		if err != nil {
			return false
		}
		// One comparison per unique string; the packed code array is
		// scanned without decoding a single value.
		op := cmpOpFor(f.Op)
		member := make([]bool, len(values))
		for k, s := range values {
			member[k] = compress.OpHolds(op, strings.Compare(s, f.Val.Str))
		}
		if !compress.SelectInt64In(idxPayload, member, match[:n]) {
			return false
		}
	default:
		return false
	}
	// NULL slots are encoded as a real fill value that may have matched;
	// a comparison over NULL is never TRUE, so intersect with validity.
	if mask != nil {
		for i := 0; i < n; i++ {
			if match[i] && !validBit(i) {
				match[i] = false
			}
		}
	}
	return true
}

// narrow drops from s.sel the rows an Exact pushed filter on a
// still-encoded column rejects, each filter evaluated by its kernel
// (encSelect) over the payload into the one scratch match vector. A
// kernel that declines narrows nothing. It reports whether any kernel
// ran. Caller holds seg.mu.
func (s *segReader) narrow(seg *segment, n int) bool {
	narrowed := false
	for _, f := range s.filters {
		if !f.Exact || f.Col >= len(seg.enc) || seg.enc[f.Col] == nil {
			continue
		}
		if s.match == nil {
			s.match = make([]bool, SegRows)
		}
		match := s.match[:n]
		for i := range match {
			match[i] = true
		}
		if !encSelect(seg.enc[f.Col], s.t.typs[f.Col], f, match) {
			continue
		}
		narrowed = true
		k := 0
		for _, r := range s.sel {
			if match[r] {
				s.sel[k] = r
				k++
			}
		}
		s.sel = s.sel[:k]
	}
	return narrowed
}
