package exec

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// aggKind is what an aggregate keeps per slot; it picks the columns an
// aggCol allocates and the kernel that updates them.
//
//	kind        aggregates                       per-slot columns
//	countStar   count(*)                         count
//	count       count(x)                         count
//	sumInt      sum/avg over INTEGER, BIGINT,    count, sumI
//	            BOOLEAN (TIMESTAMP payloads)
//	sumFloat    sum/avg over DOUBLE              count, sumF, curF (+ leaves)
//	minMax      min/max over any type            set, best{I,F,S} by type
//	distinct    any DISTINCT aggregate           the value set
type aggKind uint8

const (
	aggCountStar aggKind = iota
	aggCount
	aggSumInt
	aggSumFloat
	aggMinMax
	aggDistinct
)

// aggCol is one aggregate's state for every slot of a groupStore: flat
// typed columns indexed by slot, updated by one tight loop per
// (aggregate, argument type) over a chunk's slot vector.
type aggCol struct {
	spec    plan.AggSpec
	kind    aggKind
	argType types.Type // the argument's storage type
	isMax   bool

	count []int64
	sumI  []int64
	sumF  []float64
	// curF is the DOUBLE subtotal of the morsel that last touched the
	// slot. The store finishes it at the next morsel boundary: into sumF,
	// or as a retained leaf (leafSlot, leafSeq, leafSum — parallel
	// arrays, appended in morsel order per slot).
	curF     []float64
	leafSlot []uint32
	leafSeq  []int64
	leafSum  []float64

	// min/max: set marks slots that have seen a value; the value sits in
	// the column of the argument's type (BOOLEAN as 0/1 in bestI) and is
	// kept bit for bit — ties under types.Compare keep the earlier value.
	set   []bool
	bestI []int64
	bestF []float64
	bestS []string

	// distinct holds, per slot, the encoded set of values seen (nil =
	// empty); no scalar state accumulates until finish, which folds the
	// set in sorted-key order. That makes partials mergeable by plain set
	// union and the fold order — hence a DOUBLE sum's reduction tree —
	// the same wherever the values were collected. distBytes is the
	// sets' estimated footprint.
	distinct  []map[string]struct{}
	distBytes int64
	oneVec    [1]*vector.Vector
}

// distinctValueBytes is what one value of a DISTINCT set is charged
// beyond its key bytes.
const distinctValueBytes = 16

func (c *aggCol) init(spec plan.AggSpec) {
	c.spec = spec
	if spec.Arg != nil {
		if c.argType = spec.Arg.Type(); c.argType == types.Null {
			c.argType = types.BigInt // a NULL constant evaluates to an all-NULL BIGINT vector
		}
	}
	switch {
	case spec.Arg == nil:
		c.kind = aggCountStar
	case spec.Distinct:
		c.kind = aggDistinct
	case spec.Func == "count":
		c.kind = aggCount
	case spec.Func == "min", spec.Func == "max":
		c.kind = aggMinMax
		c.isMax = spec.Func == "max"
	case c.argType == types.Double:
		c.kind = aggSumFloat
	default:
		c.kind = aggSumInt
	}
}

func (c *aggCol) slotBytes() int64 {
	switch c.kind {
	case aggSumInt:
		return 16
	case aggSumFloat:
		return 24
	case aggMinMax:
		if c.argType == types.Varchar {
			return 1 + 16
		}
		return 1 + 8
	}
	return 8 // a count, or a DISTINCT set's map pointer
}

// extraBytes is the aggregate's footprint beyond its per-slot columns.
func (c *aggCol) extraBytes() int64 {
	return int64(cap(c.leafSlot))*(4+8+8) + c.distBytes
}

func (c *aggCol) rebuild(keep, remap []uint32, n, newCap int) {
	switch c.kind {
	case aggCountStar, aggCount:
		c.count = regrow(c.count, keep, n, newCap)
	case aggSumInt:
		c.count = regrow(c.count, keep, n, newCap)
		c.sumI = regrow(c.sumI, keep, n, newCap)
	case aggSumFloat:
		c.count = regrow(c.count, keep, n, newCap)
		c.sumF = regrow(c.sumF, keep, n, newCap)
		c.curF = regrow(c.curF, keep, n, newCap)
		if remap != nil {
			c.keepLeaves(remap)
		}
	case aggMinMax:
		c.set = regrow(c.set, keep, n, newCap)
		switch c.argType {
		case types.Double:
			c.bestF = regrow(c.bestF, keep, n, newCap)
		case types.Varchar:
			c.bestS = regrow(c.bestS, keep, n, newCap)
		default:
			c.bestI = regrow(c.bestI, keep, n, newCap)
		}
	case aggDistinct:
		if remap != nil {
			for old, to := range remap {
				if to == ^uint32(0) {
					c.distBytes -= distinctSetBytes(c.distinct[old])
				}
			}
		}
		c.distinct = regrow(c.distinct, keep, n, newCap)
	}
}

// keepLeaves drops the leaves of dead slots and renumbers the rest into
// right-sized arrays.
func (c *aggCol) keepLeaves(remap []uint32) {
	live := 0
	for _, sl := range c.leafSlot {
		if remap[sl] != ^uint32(0) {
			live++
		}
	}
	slots, seqs, sums := make([]uint32, 0, live), make([]int64, 0, live), make([]float64, 0, live)
	for i, sl := range c.leafSlot {
		if to := remap[sl]; to != ^uint32(0) {
			slots, seqs, sums = append(slots, to), append(seqs, c.leafSeq[i]), append(sums, c.leafSum[i])
		}
	}
	c.leafSlot, c.leafSeq, c.leafSum = slots, seqs, sums
}

func distinctSetBytes(set map[string]struct{}) int64 {
	var b int64
	for k := range set {
		b += int64(len(k)) + distinctValueBytes
	}
	return b
}

// ---- kernels ----

// update folds one chunk's argument column into the slots its rows
// resolved to. The (kind, type) dispatch happens here, once per chunk;
// every case is a loop over typed arrays with no types.Value in it.
//
//quack:hotpath
func (c *aggCol) update(slots []uint32, arg *vector.Vector) {
	switch c.kind {
	case aggCountStar:
		countValid(c.count, slots, nil)
	case aggCount:
		countValid(c.count, slots, &arg.Valid)
	case aggSumInt:
		switch arg.Type {
		case types.Integer:
			sumInts(c.count, c.sumI, slots, arg.I32, &arg.Valid)
		case types.BigInt, types.Timestamp:
			sumInts(c.count, c.sumI, slots, arg.I64, &arg.Valid)
		case types.Boolean:
			sumBools(c.count, c.sumI, slots, arg.Bools, &arg.Valid)
		}
	case aggSumFloat:
		sumFloats(c.count, c.curF, slots, arg.F64, &arg.Valid)
	case aggMinMax:
		switch arg.Type {
		case types.Integer:
			minMaxInts(c.bestI, c.set, slots, arg.I32, &arg.Valid, c.isMax)
		case types.BigInt, types.Timestamp:
			minMaxInts(c.bestI, c.set, slots, arg.I64, &arg.Valid, c.isMax)
		case types.Boolean:
			minMaxBools(c.bestI, c.set, slots, arg.Bools, &arg.Valid, c.isMax)
		case types.Double:
			minMaxFloats(c.bestF, c.set, slots, arg.F64, &arg.Valid, c.isMax)
		case types.Varchar:
			minMaxStrings(c.bestS, c.set, slots, arg.Str, &arg.Valid, c.isMax)
		}
	case aggDistinct:
		c.addDistinct(slots, arg)
	}
}

// countValid counts the rows valid marks (nil: every row).
//
//quack:hotpath
func countValid(cnt []int64, slots []uint32, valid *vector.Bitmask) {
	if valid == nil || valid.AllValid() {
		for _, s := range slots {
			cnt[s]++
		}
		return
	}
	for r, s := range slots {
		if valid.IsValid(r) {
			cnt[s]++
		}
	}
}

type intElem interface{ ~int32 | ~int64 }

// sumInts adds with two's-complement wrap-around, like BIGINT
// arithmetic everywhere else in the engine.
//
//quack:hotpath
func sumInts[T intElem](cnt, sum []int64, slots []uint32, v []T, valid *vector.Bitmask) {
	v = v[:len(slots)]
	if valid.AllValid() {
		for r, s := range slots {
			cnt[s]++
			sum[s] += int64(v[r])
		}
		return
	}
	for r, s := range slots {
		if valid.IsValid(r) {
			cnt[s]++
			sum[s] += int64(v[r])
		}
	}
}

//quack:hotpath
func sumBools(cnt, sum []int64, slots []uint32, v []bool, valid *vector.Bitmask) {
	v = v[:len(slots)]
	all := valid.AllValid()
	for r, s := range slots {
		if all || valid.IsValid(r) {
			cnt[s]++
			if v[r] {
				sum[s]++
			}
		}
	}
}

// sumFloats adds into the in-flight morsel's subtotals; the store has
// already finished every earlier morsel's (beginMorselRows).
//
//quack:hotpath
func sumFloats(cnt []int64, cur []float64, slots []uint32, v []float64, valid *vector.Bitmask) {
	v = v[:len(slots)]
	if valid.AllValid() {
		for r, s := range slots {
			cnt[s]++
			cur[s] += v[r]
		}
		return
	}
	for r, s := range slots {
		if valid.IsValid(r) {
			cnt[s]++
			cur[s] += v[r]
		}
	}
}

//quack:hotpath
func minMaxInts[T intElem](best []int64, set []bool, slots []uint32, v []T, valid *vector.Bitmask, isMax bool) {
	v = v[:len(slots)]
	all := valid.AllValid()
	for r, s := range slots {
		if !all && !valid.IsValid(r) {
			continue
		}
		x := int64(v[r])
		keepBest(best, set, s, x, ordBetter(x, best[s], isMax))
	}
}

//quack:hotpath
func minMaxBools(best []int64, set []bool, slots []uint32, v []bool, valid *vector.Bitmask, isMax bool) {
	v = v[:len(slots)]
	all := valid.AllValid()
	for r, s := range slots {
		if !all && !valid.IsValid(r) {
			continue
		}
		var x int64
		if v[r] {
			x = 1
		}
		keepBest(best, set, s, x, ordBetter(x, best[s], isMax))
	}
}

// ordBetter reports whether x strictly beats b as the max, or the min.
func ordBetter[T int64 | string](x, b T, isMax bool) bool {
	if isMax {
		return x > b
	}
	return x < b
}

// keepBest stores x as slot's min/max value when it is the slot's first
// or beats the value kept so far (ties keep the earlier value).
func keepBest[T any](best []T, set []bool, slot uint32, x T, better bool) {
	if !set[slot] || better {
		best[slot], set[slot] = x, true
	}
}

// floatBetter is types.CompareFloat's strict order (-Inf < finite < +Inf
// < NaN, NaN == NaN, -0 == +0) spelled as two comparisons.
func floatBetter(x, b float64, isMax bool) bool {
	if isMax {
		return x > b || (x != x && b == b)
	}
	return x < b || (b != b && x == x)
}

//quack:hotpath
func minMaxFloats(best []float64, set []bool, slots []uint32, v []float64, valid *vector.Bitmask, isMax bool) {
	v = v[:len(slots)]
	all := valid.AllValid()
	for r, s := range slots {
		if !all && !valid.IsValid(r) {
			continue
		}
		keepBest(best, set, s, v[r], floatBetter(v[r], best[s], isMax))
	}
}

//quack:hotpath
func minMaxStrings(best []string, set []bool, slots []uint32, v []string, valid *vector.Bitmask, isMax bool) {
	v = v[:len(slots)]
	all := valid.AllValid()
	for r, s := range slots {
		if !all && !valid.IsValid(r) {
			continue
		}
		keepBest(best, set, s, v[r], ordBetter(v[r], best[s], isMax))
	}
}

func (c *aggCol) addDistinct(slots []uint32, arg *vector.Vector) {
	c.oneVec[0] = arg
	var buf []byte
	for r, s := range slots {
		if arg.IsNull(r) {
			continue
		}
		buf = encodeKeyRow(buf[:0], c.oneVec[:], r)
		c.addDistinctKey(s, buf)
	}
}

func (c *aggCol) addDistinctKey(slot uint32, key []byte) {
	set := c.distinct[slot]
	if set == nil {
		set = make(map[string]struct{})
		c.distinct[slot] = set
	}
	if _, ok := set[string(key)]; !ok {
		set[string(key)] = struct{}{}
		c.distBytes += int64(len(key)) + distinctValueBytes
	}
}

// ---- DOUBLE subtotals ----

// flush finishes slot's pending subtotal, which belongs to morsel seq.
//
//quack:hotpath
func (c *aggCol) flush(slot uint32, seq int64, retain bool) {
	v := c.curF[slot]
	if math.Float64bits(v) == 0 {
		return
	}
	if retain {
		c.leafSlot = append(c.leafSlot, slot)
		c.leafSeq = append(c.leafSeq, seq)
		c.leafSum = append(c.leafSum, v)
	} else {
		c.sumF[slot] += v
	}
	c.curF[slot] = 0
}

// groupLeaves reorders the leaves by slot (stable, so a slot's leaves
// keep their morsel order) and returns the n+1 offsets delimiting each
// slot's run.
func (c *aggCol) groupLeaves(n int) []uint32 {
	start := make([]uint32, n+1)
	for _, sl := range c.leafSlot {
		start[sl+1]++
	}
	for s := 0; s < n; s++ {
		start[s+1] += start[s]
	}
	next := append([]uint32(nil), start[:n]...)
	slots, seqs, sums := make([]uint32, len(c.leafSlot)), make([]int64, len(c.leafSlot)), make([]float64, len(c.leafSlot))
	for i, sl := range c.leafSlot {
		p := next[sl]
		next[sl]++
		slots[p], seqs[p], sums[p] = sl, c.leafSeq[i], c.leafSum[i]
	}
	c.leafSlot, c.leafSeq, c.leafSum = slots, seqs, sums
	return start
}

// foldLeaves folds every slot's leaves into sumF in morsel order. Leaves
// of one table are already ordered per slot; leaves gathered from
// several partials are sorted first. A morsel is accumulated by exactly
// one worker and never split by a spill, so seqs are unique per slot.
func (c *aggCol) foldLeaves(n int) {
	if len(c.leafSlot) == 0 {
		return
	}
	start := c.groupLeaves(n)
	for s := 0; s < n; s++ {
		lo, hi := start[s], start[s+1]
		seqs, sums := c.leafSeq[lo:hi], c.leafSum[lo:hi]
		if !slices.IsSorted(seqs) {
			sort.Sort(&leavesBySeq{seqs, sums})
		}
		sum := c.sumF[s]
		for _, v := range sums {
			sum += v
		}
		c.sumF[s] = sum
	}
	c.leafSlot, c.leafSeq, c.leafSum = nil, nil, nil
}

type leavesBySeq struct {
	seqs []int64
	sums []float64
}

func (o *leavesBySeq) Len() int           { return len(o.seqs) }
func (o *leavesBySeq) Less(i, j int) bool { return o.seqs[i] < o.seqs[j] }
func (o *leavesBySeq) Swap(i, j int) {
	o.seqs[i], o.seqs[j] = o.seqs[j], o.seqs[i]
	o.sums[i], o.sums[j] = o.sums[j], o.sums[i]
}

// ---- folding ----

// fold folds slot ss of src, the same aggregate in another store, into
// slot. Counts, integer sums, min/max and set unions commute. A DOUBLE
// sum's state is its leaves — sumF is still zero wherever partials meet
// (see aggTable.retain) — delimited in src by leafStart (groupLeaves),
// appended here and ordered by foldLeaves.
func (c *aggCol) fold(slot uint32, src *aggCol, ss uint32, leafStart []uint32) {
	switch c.kind {
	case aggCountStar, aggCount:
		c.count[slot] += src.count[ss]
	case aggSumFloat:
		c.count[slot] += src.count[ss]
		lo, hi := leafStart[ss], leafStart[ss+1]
		for range hi - lo {
			c.leafSlot = append(c.leafSlot, slot)
		}
		c.leafSeq = append(c.leafSeq, src.leafSeq[lo:hi]...)
		c.leafSum = append(c.leafSum, src.leafSum[lo:hi]...)
	case aggSumInt:
		c.count[slot] += src.count[ss]
		c.sumI[slot] += src.sumI[ss]
	case aggMinMax:
		if !src.set[ss] {
			return
		}
		switch c.argType {
		case types.Double:
			keepBest(c.bestF, c.set, slot, src.bestF[ss], floatBetter(src.bestF[ss], c.bestF[slot], c.isMax))
		case types.Varchar:
			keepBest(c.bestS, c.set, slot, src.bestS[ss], ordBetter(src.bestS[ss], c.bestS[slot], c.isMax))
		default:
			keepBest(c.bestI, c.set, slot, src.bestI[ss], ordBetter(src.bestI[ss], c.bestI[slot], c.isMax))
		}
	case aggDistinct:
		for k := range src.distinct[ss] {
			c.addDistinctKey(slot, []byte(k))
		}
	}
}

// ---- spilled-state codec ----

// appendState appends slot's state. leafStart delimits the slot's
// leaves (groupLeaves); the pending subtotal was flushed into them.
func (c *aggCol) appendState(buf []byte, slot uint32, leafStart []uint32) []byte {
	switch c.kind {
	case aggCountStar, aggCount:
		buf = binary.AppendVarint(buf, c.count[slot])
	case aggSumInt:
		buf = binary.AppendVarint(buf, c.count[slot])
		buf = binary.AppendVarint(buf, c.sumI[slot])
	case aggSumFloat:
		buf = binary.AppendVarint(buf, c.count[slot])
		lo, hi := leafStart[slot], leafStart[slot+1]
		buf = binary.AppendUvarint(buf, uint64(hi-lo))
		for i := lo; i < hi; i++ {
			buf = binary.AppendVarint(buf, c.leafSeq[i])
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.leafSum[i]))
		}
	case aggMinMax:
		if !c.set[slot] {
			return append(buf, 0)
		}
		buf = append(buf, 1)
		switch c.argType {
		case types.Double:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.bestF[slot]))
		case types.Varchar:
			buf = binary.AppendUvarint(buf, uint64(len(c.bestS[slot])))
			buf = append(buf, c.bestS[slot]...)
		default:
			buf = binary.AppendVarint(buf, c.bestI[slot])
		}
	case aggDistinct:
		keys := sortedKeys(c.distinct[slot])
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
		}
	}
	return buf
}

func sortedKeys(set map[string]struct{}) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// foldState decodes one appendState record and folds it into slot. It
// trusts nothing: counts are bounded by the payload (stateReader),
// values are checked against the argument type before anything later
// decodes them.
func (c *aggCol) foldState(r *stateReader, slot uint32) {
	switch c.kind {
	case aggCountStar, aggCount:
		c.count[slot] += r.varint()
	case aggSumInt:
		c.count[slot] += r.varint()
		c.sumI[slot] += r.varint()
	case aggSumFloat:
		c.count[slot] += r.varint()
		for n := r.uvarint(); n > 0 && r.err == nil; n-- {
			seq, sum := r.varint(), math.Float64frombits(r.u64())
			c.leafSlot = append(c.leafSlot, slot)
			c.leafSeq = append(c.leafSeq, seq)
			c.leafSum = append(c.leafSum, sum)
		}
	case aggMinMax:
		switch r.byte() {
		case 0:
			return
		case 1:
		default:
			r.fail()
			return
		}
		switch c.argType {
		case types.Double:
			x := math.Float64frombits(r.u64())
			keepBest(c.bestF, c.set, slot, x, floatBetter(x, c.bestF[slot], c.isMax))
		case types.Varchar:
			x := string(r.bytes(r.uvarint()))
			keepBest(c.bestS, c.set, slot, x, ordBetter(x, c.bestS[slot], c.isMax))
		default:
			x := r.varint()
			if c.argType == types.Boolean && x != 0 && x != 1 {
				r.fail()
			}
			keepBest(c.bestI, c.set, slot, x, ordBetter(x, c.bestI[slot], c.isMax))
		}
	case aggDistinct:
		for n := r.uvarint(); n > 0 && r.err == nil; n-- {
			k := r.bytes(r.uvarint())
			if r.err != nil {
				return
			}
			if !types.ValidValueKey(k, c.spec.Arg.Type()) {
				r.fail()
				return
			}
			c.addDistinctKey(slot, k)
		}
	}
}

// ---- finishing ----

// finish writes the aggregate's result for the slots in sel into rows
// at, at+1, ... of out, whose type is the aggregate's result type.
func (c *aggCol) finish(out *vector.Vector, at int, sel []uint32) {
	switch c.kind {
	case aggCountStar, aggCount:
		for i, s := range sel {
			out.I64[at+i] = c.count[s]
		}
	case aggSumInt:
		for i, s := range sel {
			i += at
			switch n := c.count[s]; {
			case n == 0:
				out.SetNull(i)
			case c.spec.Func == "avg":
				out.F64[i] = float64(c.sumI[s]) / float64(n)
			default:
				out.I64[i] = c.sumI[s]
			}
		}
	case aggSumFloat:
		for i, s := range sel {
			i += at
			switch n := c.count[s]; {
			case n == 0:
				out.SetNull(i)
			case c.spec.Func == "avg":
				out.F64[i] = c.sumF[s] / float64(n)
			default:
				out.F64[i] = c.sumF[s]
			}
		}
	case aggMinMax:
		for i, s := range sel {
			i += at
			if !c.set[s] {
				out.SetNull(i)
				continue
			}
			switch out.Type {
			case types.Boolean:
				out.Bools[i] = c.bestI[s] != 0
			case types.Integer:
				out.I32[i] = int32(c.bestI[s])
			case types.BigInt, types.Timestamp:
				out.I64[i] = c.bestI[s]
			case types.Double:
				out.F64[i] = c.bestF[s]
			case types.Varchar:
				out.Str[i] = c.bestS[s]
			}
		}
	case aggDistinct:
		for i, s := range sel {
			out.Set(at+i, c.finishDistinct(c.distinct[s]))
		}
	}
}

// finishDistinct folds a DISTINCT aggregate's value set. The fold walks
// the encoded keys in sorted order — any fixed order works for
// count/min/max, and for DOUBLE sums it pins the reduction tree, so the
// result is identical no matter which workers collected which values.
func (c *aggCol) finishDistinct(set map[string]struct{}) types.Value {
	spec := c.spec
	if spec.Func == "count" {
		return types.NewBigInt(int64(len(set)))
	}
	if len(set) == 0 {
		return types.NewNull(spec.Type)
	}
	argType := spec.Arg.Type()
	var (
		sumI int64
		sumF float64
		best types.Value
	)
	for i, k := range sortedKeys(set) {
		v := types.DecodeValueKey(k, argType)
		switch spec.Func {
		case "sum", "avg":
			switch argType {
			case types.Double:
				sumF += v.F64
			case types.Boolean:
				if v.Bool {
					sumI++
				}
			default:
				sumI += v.I64
			}
		case "min", "max":
			if i == 0 {
				best = v
			} else if c := types.Compare(v, best); (spec.Func == "max" && c > 0) || (spec.Func == "min" && c < 0) {
				best = v
			}
		}
	}
	switch spec.Func {
	case "sum":
		if spec.Type == types.Double {
			return types.NewDouble(sumF)
		}
		return types.NewBigInt(sumI)
	case "avg":
		if argType != types.Double {
			sumF = float64(sumI)
		}
		return types.NewDouble(sumF / float64(len(set)))
	case "min", "max":
		return best
	}
	return types.NewNull(spec.Type)
}
