package table

import (
	"encoding/binary"
	"math"
	"strings"

	"repro/internal/compress"
	"repro/internal/types"
	"repro/internal/vector"
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
// The path is engaged per segment and falls back to full
// materialization whenever a filter or a projected column cannot be
// handled on the encoded form. Selection must be EXACT, not merely
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

// encSelectable reports whether encSelect can evaluate f over this
// payload without decoding it. Mirrors encSelect's type/scheme checks;
// keep the two in sync.
func encSelectable(data []byte, typ types.Type, f ZoneFilter) bool {
	kind, _, _, body, err := segEncHeader(data)
	if err != nil {
		return false
	}
	if f.Op == ZoneIsNull || f.Op == ZoneNotNull || f.Val.Null {
		return true // answered from the validity mask alone
	}
	switch kind {
	case segEncInt64, segEncInt32:
		switch f.Val.Type {
		case types.Integer, types.BigInt, types.Timestamp:
			return compress.Int64SchemeSelectable(body)
		case types.Double:
			// Exact only when every column value is exact in float64;
			// INTEGER (int32) is, the 64-bit family is not.
			return kind == segEncInt32 && compress.Int64SchemeSelectable(body)
		}
		return false
	case segEncDouble:
		switch f.Val.Type {
		case types.Double, types.Integer, types.BigInt, types.Timestamp:
			return true
		}
		return false
	case segEncDict:
		return f.Val.Type == types.Varchar
	default:
		return false
	}
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

// encGatherable reports whether gatherEncoded can materialize selected
// rows from this payload (the light schemes; DEFLATE has no random
// access).
func encGatherable(data []byte) bool {
	kind, _, _, body, err := segEncHeader(data)
	if err != nil {
		return false
	}
	switch kind {
	case segEncInt64, segEncInt32:
		return compress.Int64SchemeSelectable(body)
	case segEncDouble, segEncBool, segEncDict:
		return true
	default:
		return false
	}
}

// gatherEncoded decodes only the rows in s.sel from an encoded payload
// into dst — the late-materialization step. dst is a fresh vector from
// the reader's output chunk.
func (s *segReader) gatherEncoded(data []byte, typ types.Type, dst *vector.Vector) bool {
	kind, n, mask, body, err := segEncHeader(data)
	if err != nil {
		return false
	}
	m := len(s.sel)
	if m > 0 && s.sel[m-1] >= n {
		return false
	}
	dst.SetLen(m)
	switch kind {
	case segEncInt64:
		if typ != types.BigInt && typ != types.Timestamp {
			return false
		}
		if !compress.GatherInt64(body, s.sel, dst.I64[:m]) {
			return false
		}
	case segEncInt32:
		if typ != types.Integer {
			return false
		}
		if s.gather == nil {
			s.gather = make([]int64, SegRows)
		}
		if !compress.GatherInt64(body, s.sel, s.gather[:m]) {
			return false
		}
		for k := 0; k < m; k++ {
			dst.I32[k] = int32(s.gather[k])
		}
	case segEncDouble:
		if typ != types.Double || len(body) < 8*n {
			return false
		}
		for k, r := range s.sel {
			dst.F64[k] = floatFromBits(int64(binary.LittleEndian.Uint64(body[8*r:])))
		}
	case segEncBool:
		if typ != types.Boolean || len(body) < (n+7)/8 {
			return false
		}
		for k, r := range s.sel {
			dst.Bools[k] = body[r>>3]&(1<<uint(r&7)) != 0
		}
	case segEncDict:
		if typ != types.Varchar {
			return false
		}
		values, idxPayload, _, err := compress.DecodeStringDictValues(body)
		if err != nil {
			return false
		}
		if s.gather == nil {
			s.gather = make([]int64, SegRows)
		}
		if !compress.GatherInt64(idxPayload, s.sel, s.gather[:m]) {
			return false
		}
		for k := 0; k < m; k++ {
			idx := s.gather[k]
			if idx < 0 || idx >= int64(len(values)) {
				return false
			}
			dst.Str[k] = values[idx]
		}
	default:
		return false
	}
	if mask != nil {
		for k, r := range s.sel {
			if mask[r>>3]&(1<<uint(r&7)) == 0 {
				dst.SetNull(k)
			}
		}
	}
	return true
}

// scanSegmentEncoded is the encoded-execution counterpart of
// scanSegment: it evaluates the exact pushed conjuncts over the
// segment's compressed payloads and gathers only the surviving rows,
// leaving the segment itself compressed. ok=false means the segment
// must take the materialize-and-scan path (nothing was counted);
// ok=true with a nil chunk means the path ran and selected no rows.
//
// Correctness: kernels are exact for the conjuncts they apply
// (encSelect), unsupported conjuncts are simply not applied, and the
// caller's row-level filter still evaluates the full predicate — so the
// surviving rows, their order and their chunk boundaries are identical
// to the decoded path at every thread count.
func (s *segReader) scanSegmentEncoded(seg *segment, base int64, maxRows int) (chunk *vector.Chunk, selected int, ok bool) {
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	if seg.enc == nil {
		return nil, 0, false
	}
	// At least one exact conjunct must be evaluable over a still-encoded
	// column — without one there is nothing to select on.
	hasKernel := false
	for _, f := range s.filters {
		if f.Exact && f.Col < len(seg.enc) && seg.enc[f.Col] != nil &&
			encSelectable(seg.enc[f.Col], s.t.typs[f.Col], f) {
			hasKernel = true
			break
		}
	}
	if !hasKernel {
		return nil, 0, false
	}
	// Every projected column must be decoded already or gatherable.
	for _, c := range s.cols {
		if seg.cols[c] == nil && (seg.enc[c] == nil || !encGatherable(seg.enc[c])) {
			return nil, 0, false
		}
	}

	n := seg.n
	if n > maxRows {
		n = maxRows
	}
	s.visible(seg, n)

	// Evaluate each supported conjunct into a scratch vector and
	// intersect; a kernel that declines mid-way (corrupt payload) leaves
	// the combined match untouched.
	if s.match == nil {
		s.match = make([]bool, SegRows)
		s.kmatch = make([]bool, SegRows)
	}
	match, kmatch := s.match[:SegRows], s.kmatch[:SegRows]
	applied := false
	for _, f := range s.filters {
		if !f.Exact || f.Col >= len(seg.enc) || seg.enc[f.Col] == nil {
			continue
		}
		if !encSelectable(seg.enc[f.Col], s.t.typs[f.Col], f) {
			continue
		}
		for i := 0; i < n; i++ {
			kmatch[i] = true
		}
		if !encSelect(seg.enc[f.Col], s.t.typs[f.Col], f, kmatch[:n]) {
			continue
		}
		if !applied {
			copy(match[:n], kmatch[:n])
			applied = true
		} else {
			for i := 0; i < n; i++ {
				if match[i] && !kmatch[i] {
					match[i] = false
				}
			}
		}
	}
	if !applied {
		// Every candidate declined at evaluation time; let the decode
		// path run (and surface payload errors properly).
		return nil, 0, false
	}

	// Late materialization: keep only the selected visible rows.
	k := 0
	for _, r := range s.sel {
		if match[r] {
			s.sel[k] = r
			k++
		}
	}
	s.sel = s.sel[:k]
	if k == 0 {
		return nil, 0, true
	}

	chunk = vector.NewChunk(s.typs)
	for oi, c := range s.cols {
		if seg.cols[c] != nil {
			seg.cols[c].CompactInto(chunk.Cols[oi], s.sel)
		} else if !s.gatherEncoded(seg.enc[c], s.t.typs[c], chunk.Cols[oi]) {
			return nil, 0, false
		}
	}
	chunk.SetLen(k)
	s.applyUndo(seg, chunk)
	s.fillRowIDs(chunk, base)
	return chunk, k, true
}
