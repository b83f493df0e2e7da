package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// groupStore is the columnar state of one hash aggregation: every group
// is a slot — an index into flat per-slot columns — and nothing per
// group is a heap object, so the garbage collector has no pointers to
// trace however many groups there are (VARCHAR min/max and DISTINCT
// sets excepted; they are the only pointer-bearing columns).
//
// Slots are numbered in arrival order. An open-addressing table maps a
// key hash to its slot: each bucket holds the hash's high 32 bits next
// to slot+1, so a probe compares the stored hash before it touches any
// key bytes. The hash is computed once per row; its low bits pick the
// bucket and its top four bits the spill partition (see aggTable).
//
// Keys are stored one of two ways. A single fixed-width group column is
// kept as its 8-byte value (DOUBLEs as types.CanonF64Bits) and compared as a
// word, never byte-encoded; its one possible NULL group lives outside
// the table in nullSlot. Everything else — VARCHAR or several columns —
// is kept in encodeKeyRow layout in an append-only arena, which is also
// the key format of spilled state runs.
//
// Invariant: every per-slot column has length cap and is zero beyond n,
// so a new slot starts zeroed without being written.
type groupStore struct {
	keyTypes []types.Type // declared group-key types
	fixed    bool         // one fixed-width key column: keyVal, not arena
	// retain keeps DOUBLE per-morsel subtotals as leaves for the ordered
	// fold at finish instead of folding them as morsels complete (see
	// aggTable.retain).
	retain bool

	n, cap int

	buckets []uint64 // hash>>32<<32 | slot+1; 0 = empty
	mask    uint64

	hashes   []uint64
	firstPos []int64 // packed (morsel, row) of the group's first row
	touch    []int64 // seq+1 of the last morsel that updated the group

	keyVal   []uint64 // fixed
	nullSlot uint32   // fixed: slot+1 of the NULL-key group, 0 = none

	keyOff []uint32 // arena: key of slot s is arena[keyOff[s]:keyOff[s+1]]
	arena  []byte

	aggs      []aggCol
	slotBytes int64 // bytes one slot takes across the per-slot columns
	floatSums bool  // any aggSumFloat column: morsel boundaries matter

	// Insert scratch, reused so a chunk over existing groups allocates
	// nothing.
	keyBuf []byte // the last new group's encoded key
	fresh  []freshSlot

	// hashFilter, when set, post-processes every key hash. Tests use it to
	// force collisions; production stores leave it nil.
	hashFilter func(uint64) uint64
}

// keyScratch is a caller's scratch for prepare and resolve: row hashes,
// fixed-width key values and the slot vector. The aggregation's table
// and every join probe worker own one, so lookups never share a write.
type keyScratch struct {
	hv, kv []uint64
	slots  []uint32
}

// noSlot is the slot of a row that has none: a key a lookup did not find.
const noSlot = ^uint32(0)

// freshSlot is a slot a chunk touched for the first time in its morsel,
// with the touch stamp it carried before.
type freshSlot struct {
	slot uint32
	old  int64
}

// aggFanout is the radix fan-out of the spill partitions; a slot's
// partition is the top aggPartBits bits of its hash. 16 lets the finish
// phase parallelize and a spill reclaim ~1/16 of the state at a time.
const (
	aggPartBits = 4
	aggFanout   = 1 << aggPartBits
)

func aggPartOfHash(h uint64) int { return int(h >> (64 - aggPartBits)) }

const hashTagMask uint64 = 0xffffffff00000000

// mix64 is the murmur3 finalizer: every input bit reaches every output
// bit, so the bucket bits (low) and partition bits (high) are both
// usable.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// nullKeyHash stands in for a NULL key column's value hash.
const nullKeyHash = 0x9e3779b97f4a7c15

func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func le32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// hashString hashes a VARCHAR key value eight bytes at a time; the tail
// is read with overlapping loads, never a byte loop.
func hashString(s string) uint64 {
	h := uint64(len(s)) * 0x9e3779b97f4a7c15
	for len(s) > 8 {
		h = (h ^ le64(s)) * 0xff51afd7ed558ccd
		h ^= h >> 32
		s = s[8:]
	}
	var t uint64
	switch {
	case len(s) == 8:
		t = le64(s)
	case len(s) >= 4:
		t = le32(s) | le32(s[len(s)-4:])<<32
	case len(s) > 0:
		t = uint64(s[0]) | uint64(s[len(s)/2])<<8 | uint64(s[len(s)-1])<<16
	}
	return (h ^ t) * 0xff51afd7ed558ccd
}

// keyValueHash is what row r of a key column contributes to its row's
// hash. Values that compare equal contribute equally (DOUBLEs through
// types.CanonF64Bits).
func keyValueHash(v *vector.Vector, r int) uint64 {
	switch v.Type {
	case types.Boolean:
		if v.Bools[r] {
			return 1
		}
	case types.Integer:
		return uint64(int64(v.I32[r]))
	case types.BigInt, types.Timestamp:
		return uint64(v.I64[r])
	case types.Double:
		return types.CanonF64Bits(v.F64[r])
	case types.Varchar:
		return hashString(v.Str[r])
	}
	return 0
}

// hashColumn folds one key column into the row hashes hv: for a column
// without NULLs, one type switch per chunk and a typed loop. mix64 is
// applied by the caller once all columns are in.
//
//quack:hotpath
func hashColumn(hv []uint64, v *vector.Vector) {
	n := len(hv)
	fold := func(h, x uint64) uint64 {
		h = (h ^ x) * 0xc4ceb9fe1a85ec53
		return h ^ h>>29
	}
	if !v.Valid.AllValid() {
		for r := range hv {
			x := uint64(nullKeyHash)
			if v.Valid.IsValid(r) {
				x = keyValueHash(v, r)
			}
			hv[r] = fold(hv[r], x)
		}
		return
	}
	switch v.Type {
	case types.Integer:
		for r, x := range v.I32[:n] {
			hv[r] = fold(hv[r], uint64(int64(x)))
		}
	case types.BigInt, types.Timestamp:
		for r, x := range v.I64[:n] {
			hv[r] = fold(hv[r], uint64(x))
		}
	case types.Varchar:
		for r, x := range v.Str[:n] {
			hv[r] = fold(hv[r], hashString(x))
		}
	default:
		for r := range hv {
			hv[r] = fold(hv[r], keyValueHash(v, r))
		}
	}
}

// keyMatchesRow reports whether key — a stored arena key — is the
// encodeKeyRow encoding of row r of vecs, without encoding the row.
//
//quack:hotpath
func keyMatchesRow(key []byte, vecs []*vector.Vector, r int) bool {
	p := 0
	for _, v := range vecs {
		if !v.Valid.IsValid(r) {
			if key[p] != 0 {
				return false
			}
			p++
			continue
		}
		if key[p] != 1 {
			return false
		}
		p++
		switch v.Type {
		case types.Boolean:
			if (key[p] != 0) != v.Bools[r] {
				return false
			}
			p++
		case types.Integer:
			if binary.LittleEndian.Uint32(key[p:]) != uint32(v.I32[r]) {
				return false
			}
			p += 4
		case types.BigInt, types.Timestamp:
			if binary.LittleEndian.Uint64(key[p:]) != uint64(v.I64[r]) {
				return false
			}
			p += 8
		case types.Double:
			if binary.LittleEndian.Uint64(key[p:]) != types.CanonF64Bits(v.F64[r]) {
				return false
			}
			p += 8
		case types.Varchar:
			n, str := int(binary.LittleEndian.Uint32(key[p:])), v.Str[r]
			if n != len(str) || string(key[p+4:p+4+n]) != str {
				return false
			}
			p += 4 + n
		}
	}
	return true
}

// newGroupStore builds an empty store for the aggregation.
func newGroupStore(node *plan.AggNode, retain bool) *groupStore {
	s := &groupStore{keyTypes: groupTypes(node), retain: retain}
	s.fixed = len(s.keyTypes) == 1 && s.keyTypes[0] != types.Varchar
	s.slotBytes = 8 + 8 + 8 // hashes, firstPos, touch
	if s.fixed {
		s.slotBytes += 8
	} else {
		s.slotBytes += 4
	}
	s.aggs = make([]aggCol, len(node.Aggs))
	for j, spec := range node.Aggs {
		c := &s.aggs[j]
		c.init(spec)
		s.slotBytes += c.slotBytes()
		if c.kind == aggSumFloat {
			s.floatSums = true
		}
	}
	return s
}

// bucketsFor sizes the table for a slot capacity: a power of two at
// least twice the slots, so the load factor stays under one half.
func bucketsFor(slotCap int) int {
	n := 16
	for n < 2*slotCap {
		n <<= 1
	}
	return n
}

// bytesAt is the store's footprint at the given slot and arena
// capacities: what the budget is charged.
func (s *groupStore) bytesAt(slotCap, arenaCap int) int64 {
	b := int64(slotCap)*s.slotBytes + int64(arenaCap) + int64(bucketsFor(slotCap))*8
	if !s.fixed {
		b += 4 // keyOff's closing offset
	}
	for j := range s.aggs {
		b += s.aggs[j].extraBytes()
	}
	return b
}

// bytes is the store's current footprint.
func (s *groupStore) bytes() int64 {
	if s.cap == 0 {
		return 0
	}
	return s.bytesAt(s.cap, cap(s.arena))
}

func regrow[T any](col []T, keep []uint32, n, newCap int) []T {
	out := make([]T, newCap)
	if keep == nil {
		copy(out, col[:n])
		return out
	}
	for i, s := range keep {
		out[i] = col[s]
	}
	return out
}

// rebuild reallocates every column at the new capacities, keeping the
// slots listed in keep (ascending; nil keeps all n) renumbered densely
// in the same order, and rebuilds the hash table from the stored hashes.
// It is both the growth step and the compaction after a spill; for the
// latter it returns the old-to-new slot mapping (^0 for dropped slots).
func (s *groupStore) rebuild(keep []uint32, newCap, newArenaCap int) (remap []uint32) {
	n := s.n
	if keep != nil {
		remap = make([]uint32, n)
		for i := range remap {
			remap[i] = ^uint32(0)
		}
		for i, old := range keep {
			remap[old] = uint32(i)
		}
		n = len(keep)
	}
	s.hashes = regrow(s.hashes, keep, s.n, newCap)
	s.firstPos = regrow(s.firstPos, keep, s.n, newCap)
	s.touch = regrow(s.touch, keep, s.n, newCap)
	if s.fixed {
		s.keyVal = regrow(s.keyVal, keep, s.n, newCap)
		if s.nullSlot != 0 && remap != nil {
			s.nullSlot = remap[s.nullSlot-1] + 1 // dead maps to ^0+1 == 0
		}
	} else {
		arena := make([]byte, 0, newArenaCap)
		off := make([]uint32, newCap+1)
		if keep == nil {
			arena = append(arena, s.arena...)
			copy(off, s.keyOff)
		} else {
			for i, old := range keep {
				arena = append(arena, s.arena[s.keyOff[old]:s.keyOff[old+1]]...)
				off[i+1] = uint32(len(arena))
			}
		}
		s.arena, s.keyOff = arena, off
	}
	for j := range s.aggs {
		s.aggs[j].rebuild(keep, remap, s.n, newCap)
	}
	s.n, s.cap = n, newCap
	s.buckets = make([]uint64, bucketsFor(newCap))
	s.mask = uint64(len(s.buckets) - 1)
	for sl := 0; sl < n; sl++ {
		if s.fixed && uint32(sl)+1 == s.nullSlot {
			continue
		}
		h := s.hashes[sl]
		i := h & s.mask
		for s.buckets[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.buckets[i] = h&hashTagMask | uint64(sl+1)
	}
	return remap
}

func keyWidth(t types.Type) int {
	switch t {
	case types.Boolean:
		return 1
	case types.Integer:
		return 4
	case types.BigInt, types.Timestamp, types.Double:
		return 8
	}
	return 0
}

// ---- resolving a chunk to slots ----

func growScratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, vector.ChunkCapacity))
	}
	return s[:n]
}

// prepare hashes the key columns of an n-row chunk into ks.hv, a column
// at a time. A fixed-width key also leaves its 8-byte key values in
// ks.kv.
//
//quack:hotpath
func (s *groupStore) prepare(ks *keyScratch, vecs []*vector.Vector, n int) {
	ks.hv = growScratch(ks.hv, n)
	ks.slots = growScratch(ks.slots, n)
	hv := ks.hv
	switch {
	case len(vecs) == 0:
		return
	case s.fixed:
		ks.kv = growScratch(ks.kv, n)
		kv, v := ks.kv, vecs[0]
		switch v.Type {
		case types.Boolean:
			for r, b := range v.Bools[:n] {
				kv[r] = 0
				if b {
					kv[r] = 1
				}
			}
		case types.Integer:
			for r, x := range v.I32[:n] {
				kv[r] = uint64(int64(x))
			}
		case types.BigInt, types.Timestamp:
			for r, x := range v.I64[:n] {
				kv[r] = uint64(x)
			}
		case types.Double:
			for r, x := range v.F64[:n] {
				kv[r] = types.CanonF64Bits(x)
			}
		}
		for r, x := range kv {
			hv[r] = mix64(x)
		}
	default:
		clear(hv)
		for _, v := range vecs {
			hashColumn(hv, v)
		}
		for r, h := range hv {
			hv[r] = mix64(h)
		}
	}
	if s.hashFilter != nil {
		for r, h := range hv {
			hv[r] = s.hashFilter(h)
		}
	}
}

// growth is how far room reaches beyond the need.
type growth int

const (
	growDouble growth = iota // double the capacity: the amortized default
	growEighth               // need + 1/8: what a nearly spent budget may still grant
	growExact                // the bare need: the last try before giving up
)

// room reports the slot and arena capacities at which n more slots with
// keyBytes of arena keys fit; a capacity that already suffices is
// returned unchanged.
func (s *groupStore) room(n, keyBytes int, g growth) (slotCap, arenaCap int, err error) {
	reach := func(need, have, floor int) int {
		switch g {
		case growDouble:
			return max(need, 2*have, floor)
		case growEighth:
			return need + need/8 + 1
		}
		return need
	}
	slotCap, arenaCap = s.cap, cap(s.arena)
	if need := s.n + n; need > slotCap {
		slotCap = reach(need, slotCap, 16)
	}
	if need := len(s.arena) + keyBytes; need > arenaCap {
		if need > math.MaxUint32 {
			return 0, 0, fmt.Errorf("hash table: one store's keys exceed 4 GiB")
		}
		arenaCap = min(reach(need, arenaCap, 256), math.MaxUint32)
	}
	if uint64(slotCap) >= math.MaxUint32 {
		return 0, 0, fmt.Errorf("hash table: one store holds more than 2^32 keys")
	}
	return slotCap, arenaCap, nil
}

func (s *groupStore) newSlot(h uint64, pos int64) uint32 {
	sl := uint32(s.n)
	s.n++
	s.hashes[sl] = h
	s.firstPos[sl] = pos
	return sl
}

// resolve maps the rows from..n of the chunk prepare just hashed into ks
// to their slots in ks.slots, creating slots for new keys, and returns n
// — or the first row whose new group found the store full (an arena key
// it could not place is left in keyBuf). The caller then grows the
// store, or spills and compacts it, renumbering slots[:row], and resumes
// from that row. Nothing here allocates once keyBuf has grown to the
// longest key. Without insert it only looks up and writes nothing but
// ks, so workers may share the store: a key it does not hold, or a NULL
// fixed-width key, stops it like a full store, and the caller resolves
// that row to noSlot and resumes past it.
//
//quack:hotpath
func (s *groupStore) resolve(ks *keyScratch, vecs []*vector.Vector, n, seq, from int, insert bool) int {
	if s.cap == 0 {
		return from
	}
	slots, hv := ks.slots[:n], ks.hv[:n]
	buckets, mask := s.buckets, s.mask
	switch {
	case len(vecs) == 0:
		if s.n == 0 {
			h := mix64(0)
			buckets[h&mask] = h&hashTagMask | uint64(s.newSlot(h, packAggPos(seq, 0))+1)
		}
		clear(slots[from:])
	case s.fixed:
		kv, valid := ks.kv[:n], &vecs[0].Valid
		all := valid.AllValid()
		for r := from; r < n; r++ {
			if !all && !valid.IsValid(r) {
				if s.nullSlot == 0 || !insert {
					if s.n == s.cap || !insert {
						return r
					}
					s.nullSlot = s.newSlot(nullKeyHash, packAggPos(seq, r)) + 1
				}
				slots[r] = s.nullSlot - 1
				continue
			}
			h, v := hv[r], kv[r]
			tag := h & hashTagMask
			for i := h & mask; ; i = (i + 1) & mask {
				b := buckets[i]
				if b == 0 {
					if s.n == s.cap || !insert {
						return r
					}
					sl := s.newSlot(h, packAggPos(seq, r))
					s.keyVal[sl] = v
					buckets[i] = tag | uint64(sl+1)
					slots[r] = sl
					break
				}
				if sl := uint32(b) - 1; b&hashTagMask == tag && s.keyVal[sl] == v {
					slots[r] = sl
					break
				}
			}
		}
	default:
		for r := from; r < n; r++ {
			h := hv[r]
			tag := h & hashTagMask
			for i := h & mask; ; i = (i + 1) & mask {
				b := buckets[i]
				if b == 0 {
					if !insert {
						return r
					}
					// A new group: only now is the row's key encoded.
					s.keyBuf = encodeKeyRow(s.keyBuf[:0], vecs, r)
					if s.n == s.cap || len(s.arena)+len(s.keyBuf) > cap(s.arena) {
						return r
					}
					sl := s.newSlot(h, packAggPos(seq, r))
					s.arena = append(s.arena, s.keyBuf...)
					s.keyOff[sl+1] = uint32(len(s.arena))
					buckets[i] = tag | uint64(sl+1)
					slots[r] = sl
					break
				}
				if b&hashTagMask == tag {
					sl := uint32(b) - 1
					if keyMatchesRow(s.arena[s.keyOff[sl]:s.keyOff[sl+1]], vecs, r) {
						slots[r] = sl
						break
					}
				}
			}
		}
	}
	return n
}

// beginMorselRows stamps the chunk's slots with the in-flight morsel
// and, before any kernel runs, finishes the DOUBLE subtotal of every
// slot this chunk is the first of its morsel to touch: the subtotal the
// slot carried belongs to an earlier morsel and is folded into sumF (a
// lone table sees morsels in order) or retained as a (slot, seq, sum)
// leaf. With that done up front the DOUBLE kernel is curF[slot] += v,
// and the reduction tree is the one the determinism contract fixes:
// rows of one morsel into a subtotal from +0, subtotals folded in morsel
// order. A +0 subtotal is dropped — x + (+0) is x for every x a sum can
// hold, since neither a subtotal nor a running sum that start at +0 can
// become -0.
//
//quack:hotpath
func (s *groupStore) beginMorselRows(slots []uint32, cur int64) {
	touch, fresh := s.touch, s.fresh[:0]
	if !s.floatSums {
		for _, sl := range slots {
			touch[sl] = cur
		}
		return
	}
	for _, sl := range slots {
		if old := touch[sl]; old != cur {
			touch[sl] = cur
			if old != 0 {
				fresh = append(fresh, freshSlot{sl, old})
			}
		}
	}
	s.fresh = fresh
	for j := range s.aggs {
		if c := &s.aggs[j]; c.kind == aggSumFloat {
			for _, f := range fresh {
				c.flush(f.slot, f.old-1, s.retain)
			}
		}
	}
}

// flushPending finishes every slot's pending DOUBLE subtotal: there is
// no in-flight morsel anymore (finish, or a spill of everything).
func (s *groupStore) flushPending() {
	for j := range s.aggs {
		if c := &s.aggs[j]; c.kind == aggSumFloat {
			for sl := 0; sl < s.n; sl++ {
				c.flush(uint32(sl), s.touch[sl]-1, s.retain)
			}
		}
	}
}

// foldLeaves folds every retained DOUBLE leaf into sumF, per slot in
// morsel order — the reduction a lone table performs as it goes.
func (s *groupStore) foldLeaves() {
	for j := range s.aggs {
		if c := &s.aggs[j]; c.kind == aggSumFloat {
			c.foldLeaves(s.n)
		}
	}
}

// ---- keys out of the store ----

// appendKey appends slot's group key in encodeKeyRow layout: the key of
// a spilled state record.
func (s *groupStore) appendKey(buf []byte, slot uint32) []byte {
	if !s.fixed {
		return append(buf, s.arena[s.keyOff[slot]:s.keyOff[slot+1]]...)
	}
	if slot+1 == s.nullSlot {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	v := s.keyVal[slot]
	switch keyWidth(s.keyTypes[0]) {
	case 1:
		return append(buf, byte(v))
	case 4:
		return binary.LittleEndian.AppendUint32(buf, uint32(v))
	case 8:
		return binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

// emitKeys writes the group keys of the slots in sel into rows at, at+1,
// ... of cols.
func (s *groupStore) emitKeys(cols []*vector.Vector, at int, sel []uint32) error {
	if !s.fixed {
		for i, sl := range sel {
			if err := decodeKeyRowInto(s.arena[s.keyOff[sl]:s.keyOff[sl+1]], cols, at+i); err != nil {
				return err
			}
		}
		return nil
	}
	col, kv := cols[0], s.keyVal
	switch col.Type {
	case types.Boolean:
		for i, sl := range sel {
			col.Bools[at+i] = kv[sl] != 0
		}
	case types.Integer:
		for i, sl := range sel {
			col.I32[at+i] = int32(kv[sl])
		}
	case types.BigInt, types.Timestamp:
		for i, sl := range sel {
			col.I64[at+i] = int64(kv[sl])
		}
	case types.Double:
		for i, sl := range sel {
			col.F64[at+i] = math.Float64frombits(kv[sl])
		}
	}
	if s.nullSlot != 0 {
		for i, sl := range sel {
			if sl+1 == s.nullSlot {
				col.SetNull(at + i)
			}
		}
	}
	return nil
}

// emit writes the finished rows of the slots in sel — group keys, then
// one column per aggregate — into rows at, at+1, ... of the first
// columns of out, a column at a time; out is already that long. DOUBLE
// sums must have been folded (flushPending, foldLeaves).
func (s *groupStore) emit(out *vector.Chunk, at int, sel []uint32) error {
	ng := len(s.keyTypes)
	if err := s.emitKeys(out.Cols[:ng], at, sel); err != nil {
		return err
	}
	for j := range s.aggs {
		s.aggs[j].finish(out.Cols[ng+j], at, sel)
	}
	return nil
}

// ---- folding stores and spilled states ----

// groupKey is one group's key in the form a store keeps it: a fixed-width
// store's 8-byte value (null: its NULL group), else the encodeKeyRow
// bytes of an arena store.
type groupKey struct {
	val   uint64
	null  bool
	bytes []byte
}

// keyOf returns slot's key.
func (s *groupStore) keyOf(slot uint32) groupKey {
	if !s.fixed {
		return groupKey{bytes: s.arena[s.keyOff[slot]:s.keyOff[slot+1]]}
	}
	return groupKey{val: s.keyVal[slot], null: slot+1 == s.nullSlot}
}

// parseKey reads a spilled record's key (appendKey layout) into the
// store's form, reporting false for bytes no fixed-width key encodes. An
// arena key is checked when it is emitted (decodeKeyRowInto).
func (s *groupStore) parseKey(key []byte) (groupKey, bool) {
	switch {
	case !s.fixed:
		return groupKey{bytes: key}, true
	case len(key) == 1 && key[0] == 0:
		return groupKey{null: true}, true
	case len(key) != 1+keyWidth(s.keyTypes[0]) || key[0] != 1:
		return groupKey{}, false
	}
	var v uint64
	for i := len(key) - 1; i > 0; i-- {
		v = v<<8 | uint64(key[i])
	}
	if len(key) == 5 {
		v = uint64(int64(int32(v))) // INTEGER keys are kept sign-extended
	}
	return groupKey{val: v}, true
}

// probe looks k up under its stored hash h, comparing the stored hash
// tag before the key. With insert it opens a slot for a key it does not
// find — the caller has made room (room, rebuild) for one slot and
// len(k.bytes) arena bytes — whose firstPos starts past every position,
// for the folds to lower.
func (s *groupStore) probe(h uint64, k groupKey, insert bool) (uint32, bool) {
	if k.null {
		if s.nullSlot == 0 && insert {
			s.nullSlot = s.newSlot(h, math.MaxInt64) + 1
		}
		return s.nullSlot - 1, s.nullSlot != 0
	}
	if s.cap == 0 {
		return 0, false
	}
	tag := h & hashTagMask
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		b := s.buckets[i]
		if b == 0 {
			if !insert {
				return 0, false
			}
			sl := s.newSlot(h, math.MaxInt64)
			if s.fixed {
				s.keyVal[sl] = k.val
			} else {
				s.arena = append(s.arena, k.bytes...)
				s.keyOff[sl+1] = uint32(len(s.arena))
			}
			s.buckets[i] = tag | uint64(sl+1)
			return sl, true
		}
		if sl := uint32(b) - 1; b&hashTagMask == tag {
			if s.fixed && s.keyVal[sl] == k.val || !s.fixed && bytes.Equal(s.arena[s.keyOff[sl]:s.keyOff[sl+1]], k.bytes) {
				return sl, true
			}
		}
	}
}

// foldSlot folds slot ss of src — another store of the same aggregation,
// its leaves grouped by leafIndex into idx — into slot: firstPos takes
// the minimum, counts, integer sums, min/max and DISTINCT sets fold
// commutatively, and DOUBLE leaves are appended for foldLeaves to order.
func (s *groupStore) foldSlot(slot uint32, src *groupStore, ss uint32, idx [][]uint32) {
	if p := src.firstPos[ss]; p < s.firstPos[slot] {
		s.firstPos[slot] = p
	}
	for j := range s.aggs {
		s.aggs[j].fold(slot, &src.aggs[j], ss, idx[j])
	}
}

// leafIndex groups every DOUBLE sum's leaves by slot (aggCol.groupLeaves)
// and returns each aggregate's offsets (nil: no leaves).
func (s *groupStore) leafIndex() [][]uint32 {
	idx := make([][]uint32, len(s.aggs))
	for j := range s.aggs {
		if c := &s.aggs[j]; c.kind == aggSumFloat {
			idx[j] = c.groupLeaves(s.n)
		}
	}
	return idx
}

// appendState serializes slot as a spilled record's payload: its stored
// hash as 8 little-endian bytes, which name its partition and re-load it
// without rehashing the key, then its state. DOUBLE sums travel as their
// exact (morsel seq, bits) leaves and DISTINCT sets as sorted encoded
// values, so a round trip loses nothing the deterministic finish depends
// on. leaves is the store's leafIndex.
func (s *groupStore) appendState(buf []byte, slot uint32, leaves [][]uint32) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, s.hashes[slot])
	buf = binary.AppendVarint(buf, s.firstPos[slot])
	for j := range s.aggs {
		buf = s.aggs[j].appendState(buf, slot, leaves[j])
	}
	return buf
}

// foldState decodes one appendState payload into slot, folding it with
// whatever the slot already holds.
func (s *groupStore) foldState(slot uint32, payload []byte) error {
	r := &stateReader{b: payload}
	r.u64() // the hash, which the re-load has read
	if pos := r.varint(); pos < s.firstPos[slot] {
		s.firstPos[slot] = pos
	}
	for j := range s.aggs {
		s.aggs[j].foldState(r, slot)
	}
	if r.err == nil && r.pos != len(r.b) {
		r.fail()
	}
	return r.err
}

// stateReader decodes state payloads with one sticky error.
type stateReader struct {
	b   []byte
	pos int
	err error
}

func (r *stateReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("agg spill: corrupt state payload")
	}
}

func (r *stateReader) byte() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *stateReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

// uvarint reads a count or length. Nothing a payload describes can
// outnumber its own bytes, so larger values are corruption — checked
// here, before any caller sizes a loop or an allocation from one.
func (r *stateReader) uvarint() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 || v > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	r.pos += n
	return int(v)
}

func (r *stateReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.pos : r.pos+n]
	r.pos += n
	return v
}

func (r *stateReader) u64() uint64 {
	b := r.bytes(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
