package table

import (
	"encoding/binary"
	"fmt"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Zone maps: per-segment, per-column statistics maintained at append
// time and widened (never narrowed) by in-place updates, so they are a
// conservative superset of every value any snapshot can reconstruct —
// including undo-chain old values, uncommitted appends and rows whose
// delete is not yet visible. A scan may therefore skip a segment whose
// stats refute a pushed predicate without changing the result: the
// predicate is still re-applied per row on the segments that survive.

// ColStats are the zone-map statistics of one column of one segment.
type ColStats struct {
	// Valid is false when the segment's contents are unknown (a cold
	// segment whose checkpoint predates zone maps); invalid stats never
	// refute anything.
	Valid bool
	// HasMinMax is false while no non-null value was ever observed.
	HasMinMax bool
	// Min and Max bound the non-null values under the engine's total
	// order (types.Compare: NaN greatest, NaN == NaN).
	Min, Max types.Value
	// NullCount and NonNullCount are upper bounds that never undercount:
	// updates only ever increment them, so NullCount == 0 still proves
	// "no version of any row is NULL" (and symmetrically for NonNull).
	NullCount    int64
	NonNullCount int64
}

// widenRange folds rows [start, start+k) of v into the stats. It reads
// v's native slice and leaves the stats exactly as folding each row's
// Value in order would: types.Compare's order (NaN greatest, -0 == +0)
// and, on a tie, the value seen first.
func (st *ColStats) widenRange(v *vector.Vector, start, k int) {
	if !st.Valid || k <= 0 {
		return
	}
	var n int // non-NULL rows folded
	switch v.Type {
	case types.BigInt, types.Timestamp:
		lo, hi := st.Min.I64, st.Max.I64
		if n = foldOrdered(v.I64[start:start+k], &v.Valid, start, st.HasMinMax, &lo, &hi); n > 0 {
			st.Min, st.Max = types.Value{Type: v.Type, I64: lo}, types.Value{Type: v.Type, I64: hi}
		}
	case types.Integer:
		lo, hi := int32(st.Min.I64), int32(st.Max.I64)
		if n = foldOrdered(v.I32[start:start+k], &v.Valid, start, st.HasMinMax, &lo, &hi); n > 0 {
			st.Min, st.Max = types.NewInt(lo), types.NewInt(hi)
		}
	case types.Double:
		lo, hi := st.Min.F64, st.Max.F64
		if n = foldOrdered(v.F64[start:start+k], &v.Valid, start, st.HasMinMax, &lo, &hi); n > 0 {
			st.Min, st.Max = types.NewDouble(lo), types.NewDouble(hi)
		}
	case types.Varchar:
		lo, hi := st.Min.Str, st.Max.Str
		if n = foldOrdered(v.Str[start:start+k], &v.Valid, start, st.HasMinMax, &lo, &hi); n > 0 {
			st.Min, st.Max = types.NewVarchar(lo), types.NewVarchar(hi)
		}
	case types.Boolean:
		lo, hi := st.Min.Bool || !st.HasMinMax, st.Max.Bool && st.HasMinMax
		for i, x := range v.Bools[start : start+k] {
			if v.Valid.IsValid(start + i) {
				lo, hi, n = lo && x, hi || x, n+1
			}
		}
		if n > 0 {
			st.Min, st.Max = types.NewBool(lo), types.NewBool(hi)
		}
	}
	st.NullCount += int64(k - n)
	st.NonNullCount += int64(n)
	st.HasMinMax = st.HasMinMax || n > 0
}

// foldOrdered widens [*lo, *hi] by the valid values of vals (rows
// start.. of their vector) and returns how many there were; has says
// whether lo and hi hold a value yet. A NaN (x != x, never true but for
// floats) sorts above every number.
func foldOrdered[T int32 | int64 | float64 | string](vals []T, valid *vector.Bitmask, start int, has bool, lo, hi *T) int {
	n, l, h := 0, *lo, *hi
	all := valid.AllValid()
	for i, x := range vals {
		if !all && !valid.IsValid(start+i) {
			continue
		}
		n++
		switch {
		case !has:
			l, h, has = x, x, true
		case x < l || (l != l && x == x):
			l = x
		case x > h || (x != x && h == h):
			h = x
		}
	}
	*lo, *hi = l, h
	return n
}

// ZoneOp is the operator of a scan-eligible conjunct.
type ZoneOp uint8

// Zone-map predicate operators.
const (
	ZoneEq ZoneOp = iota
	ZoneNe
	ZoneLt
	ZoneLe
	ZoneGt
	ZoneGe
	ZoneIsNull
	ZoneNotNull
)

// String renders the operator for EXPLAIN output.
func (o ZoneOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">=", " IS NULL", " IS NOT NULL"}[o]
}

// ZoneFilter is one pushed conjunct a scan can test against zone maps:
// column Op constant (Val is unset for the null tests). Col is a table
// column index, not an output position.
type ZoneFilter struct {
	Col int
	Op  ZoneOp
	Val types.Value
	// Exact marks a conjunct whose row-level truth is exactly
	// "column Op Val" under the engine's comparison semantics — not
	// merely implied by it. Refutation (a superset test) is safe either
	// way, but only exact filters may drive encoded-execution selection
	// kernels: an inexact filter could drop rows the full predicate
	// would keep. See CONTRIBUTING.md "Engine invariants".
	Exact bool
}

// String renders the filter for EXPLAIN output; name is the column name.
func (f ZoneFilter) String(name string) string {
	switch f.Op {
	case ZoneIsNull, ZoneNotNull:
		return name + f.Op.String()
	default:
		return name + f.Op.String() + f.Val.String()
	}
}

// zoneComparable reports whether stats of type a can be ordered against
// a constant of type b by types.Compare.
func zoneComparable(a, b types.Type) bool {
	intFam := func(t types.Type) bool {
		return t == types.Integer || t == types.BigInt || t == types.Timestamp
	}
	switch {
	case a == types.Varchar || b == types.Varchar:
		return a == types.Varchar && b == types.Varchar
	case a == types.Double || b == types.Double:
		return (a == types.Double || intFam(a)) && (b == types.Double || intFam(b))
	default:
		return intFam(a) && intFam(b)
	}
}

// Refutes reports whether the stats prove no visible row of the segment
// can satisfy f. Comparisons against NULL never hold, so a null constant
// refutes every comparison.
func (st *ColStats) Refutes(f ZoneFilter) bool {
	if !st.Valid {
		return false
	}
	switch f.Op {
	case ZoneIsNull:
		return st.NullCount == 0
	case ZoneNotNull:
		return st.NonNullCount == 0
	}
	if f.Val.Null {
		return true
	}
	if !st.HasMinMax {
		// Every row is NULL; no comparison passes.
		return true
	}
	if !zoneComparable(st.Min.Type, f.Val.Type) {
		return false
	}
	switch f.Op {
	case ZoneEq:
		return types.Compare(f.Val, st.Min) < 0 || types.Compare(f.Val, st.Max) > 0
	case ZoneNe:
		return types.Compare(st.Min, f.Val) == 0 && types.Compare(st.Max, f.Val) == 0
	case ZoneLt:
		return types.Compare(st.Min, f.Val) >= 0
	case ZoneLe:
		return types.Compare(st.Min, f.Val) > 0
	case ZoneGt:
		return types.Compare(st.Max, f.Val) <= 0
	case ZoneGe:
		return types.Compare(st.Max, f.Val) < 0
	}
	return false
}

// ---- serialization (catalog checkpoint image) ----

const (
	statsFlagValid  = 1 << 0
	statsFlagMinMax = 1 << 1
	// statsFlagDistinct is reserved: files checkpointed before the
	// all-distinct hint was dropped may carry it. It is never written
	// and DecodeColStats ignores it.
	statsFlagDistinct = 1 << 2
)

// AppendColStats serializes one column's per-segment stats. typ is the
// column's logical type (it fixes the Min/Max encoding).
func AppendColStats(dst []byte, typ types.Type, stats []ColStats) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(stats)))
	for _, st := range stats {
		var flags byte
		if st.Valid {
			flags |= statsFlagValid
		}
		if st.HasMinMax {
			flags |= statsFlagMinMax
		}
		dst = append(dst, flags)
		if !st.Valid {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(st.NullCount))
		dst = binary.AppendUvarint(dst, uint64(st.NonNullCount))
		if !st.HasMinMax {
			continue
		}
		dst = appendStatValue(dst, typ, st.Min)
		dst = appendStatValue(dst, typ, st.Max)
	}
	return dst
}

func appendStatValue(dst []byte, typ types.Type, v types.Value) []byte {
	switch typ {
	case types.Double:
		return binary.LittleEndian.AppendUint64(dst, uint64(floatBits(v.F64)))
	case types.Varchar:
		dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
		return append(dst, v.Str...)
	case types.Boolean:
		if v.Bool {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		return binary.AppendVarint(dst, v.I64)
	}
}

// DecodeColStats reverses AppendColStats, returning the stats and the
// remaining buffer.
func DecodeColStats(src []byte, typ types.Type) ([]ColStats, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("table: bad stats header")
	}
	src = src[k:]
	out := make([]ColStats, n)
	for i := range out {
		if len(src) < 1 {
			return nil, nil, fmt.Errorf("table: stats truncated")
		}
		flags := src[0]
		src = src[1:]
		st := &out[i]
		st.Valid = flags&statsFlagValid != 0
		st.HasMinMax = flags&statsFlagMinMax != 0
		if !st.Valid {
			st.HasMinMax = false
			continue
		}
		var err error
		if st.NullCount, src, err = decodeStatCount(src); err != nil {
			return nil, nil, err
		}
		if st.NonNullCount, src, err = decodeStatCount(src); err != nil {
			return nil, nil, err
		}
		if !st.HasMinMax {
			continue
		}
		if st.Min, src, err = decodeStatValue(src, typ); err != nil {
			return nil, nil, err
		}
		if st.Max, src, err = decodeStatValue(src, typ); err != nil {
			return nil, nil, err
		}
	}
	return out, src, nil
}

func decodeStatCount(src []byte) (int64, []byte, error) {
	v, k := binary.Uvarint(src)
	if k <= 0 {
		return 0, nil, fmt.Errorf("table: stats count truncated")
	}
	return int64(v), src[k:], nil
}

func decodeStatValue(src []byte, typ types.Type) (types.Value, []byte, error) {
	switch typ {
	case types.Double:
		if len(src) < 8 {
			return types.Value{}, nil, fmt.Errorf("table: stats value truncated")
		}
		return types.NewDouble(floatFromBits(int64(binary.LittleEndian.Uint64(src)))), src[8:], nil
	case types.Varchar:
		l, k := binary.Uvarint(src)
		if k <= 0 || uint64(len(src)-k) < l {
			return types.Value{}, nil, fmt.Errorf("table: stats value truncated")
		}
		return types.NewVarchar(string(src[k : k+int(l)])), src[k+int(l):], nil
	case types.Boolean:
		if len(src) < 1 {
			return types.Value{}, nil, fmt.Errorf("table: stats value truncated")
		}
		return types.NewBool(src[0] != 0), src[1:], nil
	default:
		v, k := binary.Varint(src)
		if k <= 0 {
			return types.Value{}, nil, fmt.Errorf("table: stats value truncated")
		}
		return types.Value{Type: typ, I64: v}, src[k:], nil
	}
}

// ---- table-level access ----

// SetSegmentStats installs catalog-loaded stats: stats[c][i] is column
// c of segment i. Columns or segments beyond the recorded counts keep
// invalid stats (never skipped). Called once at open, before any scan.
func (t *DataTable) SetSegmentStats(stats [][]ColStats) {
	t.mu.RLock()
	segs := t.segs
	t.mu.RUnlock()
	for c := range stats {
		if c >= len(t.typs) {
			break
		}
		for i, st := range stats[c] {
			if i >= len(segs) {
				break
			}
			s := segs[i]
			s.mu.Lock()
			s.stats[c] = st
			s.mu.Unlock()
		}
	}
}

// RebuildStats recomputes every segment's per-column zone-map
// statistics exactly from the versions still reachable by some active
// or future snapshot (PRAGMA rebuild_stats). Runtime maintenance only
// ever widens stats — a committed delete or a rolled-back append
// leaves its values covered forever — so over time the maps drift
// toward uselessness on churned tables; this narrows them back.
// Excluded are rows whose append rolled back and rows whose delete is
// committed and visible to every snapshot at or above oldestVisible;
// still-linked undo versions are included (Vacuum prunes the ones
// nobody can read).
func (t *DataTable) RebuildStats(oldestVisible uint64) error {
	cols := make([]int, len(t.typs))
	for i := range cols {
		cols[i] = i
	}
	// Pinning keeps every column resident (decoded or encoded) for the
	// duration; encoded segments are decoded transiently below without
	// disturbing their pooled compressed form.
	release, err := t.PinColumns(cols)
	if err != nil {
		return err
	}
	defer release()
	t.mu.RLock()
	segs := t.segs
	t.mu.RUnlock()
	for _, s := range segs {
		// The write lock spans the scan and the install: a concurrent
		// update widening the old stats between the two would otherwise
		// be lost, leaving the maps able to refute a live value.
		s.mu.Lock()
		err := s.rebuildStatsLocked(t.typs, oldestVisible)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// rebuildStatsLocked recomputes one segment's stats. Caller holds s.mu.
func (s *segment) rebuildStatsLocked(typs []types.Type, oldestVisible uint64) error {
	live := make([]bool, s.n)
	for r := 0; r < s.n; r++ {
		if s.loadInsert(r) == txn.Aborted {
			continue // rolled-back append: no snapshot reads the slot
		}
		if d := s.loadDelete(r); d != 0 && d < txn.TxnIDStart && d <= oldestVisible {
			continue // delete committed and visible to every snapshot
		}
		live[r] = true
	}
	for c := range typs {
		data := s.cols[c]
		if data == nil && s.enc != nil && s.enc[c] != nil {
			v := vector.New(typs[c], SegRows)
			if err := gatherSeg(s.enc[c], typs[c], nil, v, nil); err != nil {
				return fmt.Errorf("table: rebuild stats: %w", err)
			}
			data = v
		}
		if data == nil && s.n > 0 {
			continue // nothing to recompute from; keep the old stats
		}
		st := ColStats{Valid: true}
		if data != nil {
			n := s.n
			if data.Len() < n {
				n = data.Len()
			}
			for r := 0; r < n; {
				run := r
				for run < n && live[run] {
					run++
				}
				st.widenRange(data, r, run-r)
				r = run + 1
			}
		}
		// Undo versions still reachable by old snapshots stay covered.
		for nd := s.updates[c]; nd != nil; nd = nd.next {
			st.widenRange(nd.old, 0, len(nd.rows))
		}
		s.stats[c] = st
	}
	return nil
}

// ZoneSkipInfo returns how many of the table's segments the zone maps
// alone refute for filters. EXPLAIN uses it. It reads no payload, so the
// count does not depend on which columns happen to be loaded; a scan
// may skip more, because it also tests the compressed payloads of the
// columns it loads (segRefuted).
func (t *DataTable) ZoneSkipInfo(filters []ZoneFilter) (skipped, total int) {
	segs, _ := t.snapshotSegments()
	for _, s := range segs {
		s.mu.RLock()
		for _, f := range filters {
			if f.Col < len(s.stats) && s.stats[f.Col].Refutes(f) {
				skipped++
				break
			}
		}
		s.mu.RUnlock()
	}
	return skipped, len(segs)
}

// segRefuted reports whether any pushed filter is refuted for segment s,
// first by the zone-map stats, then — for columns still resident in
// their compressed form — directly on the encoded payload (dictionary
// membership, FOR/RLE bounds) without decompressing it.
func segRefuted(t *DataTable, s *segment, filters []ZoneFilter) bool {
	if len(filters) == 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, f := range filters {
		if f.Col >= len(s.stats) {
			continue
		}
		if s.stats[f.Col].Refutes(f) {
			return true
		}
		if s.enc != nil && f.Col < len(s.enc) && s.enc[f.Col] != nil {
			if encRefutes(s.enc[f.Col], t.typs[f.Col], f) {
				return true
			}
		}
	}
	return false
}
