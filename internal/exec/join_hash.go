package exec

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/vector"
)

// buildRef packs (chunk, row) into one int64.
type buildRef int64

func makeRef(chunk, row int) buildRef { return buildRef(int64(chunk)<<20 | int64(row)) }
func (r buildRef) chunk() int         { return int(int64(r) >> 20) }
func (r buildRef) row() int           { return int(int64(r) & (1<<20 - 1)) }

// hashJoinOp materializes its build (right) side and probes it from
// inside the probe source's workers. With keys the build rows are
// indexed by a groupStore — the aggregation's hash table, without
// aggregates — whose slots are the distinct build keys; a join without
// keys (CROSS, a non-equi condition) has no table and every build row is
// a candidate for every probe row. Either way candidates come in global
// build order and joinEmitter turns them into output.
//
// With keys it is also the adaptive equi-join: when the build side does
// not fit the buffer pool budget, an inner join degrades to the
// out-of-core merge join — the §4 RAM-versus-CPU trade-off — and a LEFT
// join (the merge join is inner-only) fails.
//
// Once built, the join is a source: its probe is a stage of the probe
// source, stages a parent attaches run behind it, and a breaker above
// the join consumes the probe output on the probe source's workers.
// After a hand-over the probe source is the merge join behind opSource.
type hashJoinOp struct {
	left, right source
	node        *plan.JoinNode
	slot        *OpProfile
	// A reservation the pool refuses fails a strict build (an Auto LEFT
	// join) and hands a build with a sorted side over (an inner Auto
	// join): handedOver flips, and every build worker feeds its sorter of
	// sorted instead. Any other build keeps the chunk unreserved.
	strict     bool
	sorted     *sortedStream
	handedOver atomic.Bool

	// above holds the stages attached before the probe was: Open attaches
	// them behind it.
	above   []stageFactory
	probing bool

	// buildChunks is the build side in global build order (by source
	// sequence), whichever worker produced which chunk.
	buildChunks []*vector.Chunk
	// store indexes a keyed build. Slot s's build rows, in build order,
	// are refs[start[s]:start[s+1]]; a row with a NULL key is in no list.
	store *groupStore
	start []uint32
	refs  []buildRef
	// hashFilter is handed to the store (a test hook; see groupStore).
	hashFilter func(uint64) uint64
	// reserved is what the pool holds for buildChunks and the table.
	reserved atomic.Int64
}

func newHashJoin(left, right source, n *plan.JoinNode, slot *OpProfile) *hashJoinOp {
	return &hashJoinOp{left: left, right: right, node: n, slot: slot}
}

// refOverhead is the table's share of a build row's reservation.
const refOverhead = 24

func (h *hashJoinOp) release(ctx *Context) {
	if r := h.reserved.Swap(0); r > 0 {
		ctx.Pool.Release(r)
	}
}

// Open picks what a refused reservation does, opens both children and
// builds. Once the build has reserved anything there is nothing left to
// open, so a reservation the build was refused is the only way this join
// exceeds its budget, and a merge join the build hands over to finds the
// left child open.
func (h *hashJoinOp) Open(ctx *Context) error {
	switch {
	case len(h.node.RightKeys) == 0 || ctx.JoinStrategy == JoinForceHash:
	case h.node.Type == plan.JoinLeft:
		if ctx.JoinStrategy == JoinForceMerge {
			return fmt.Errorf("exec: merge join does not support LEFT joins")
		}
		// No merge fallback: an oversized build surfaces as an error
		// instead of silently starving the application.
		h.strict = true
	default:
		// Forcing the merge join hands over before the first chunk.
		h.sorted = newJoinSort(h.right, h.node.Right, h.node.RightKeys, h.slot)
		h.handedOver.Store(ctx.JoinStrategy == JoinForceMerge)
	}
	if err := h.right.Open(ctx); err != nil {
		return err
	}
	if err := h.left.Open(ctx); err != nil {
		return err
	}
	err := h.build(ctx)
	if err != nil {
		return err
	}
	if h.handedOver.Load() {
		// The merge join, a plain operator, runs in place of the probe: its
		// rows count into the join's profile slot.
		if ctx.JoinStrategy == JoinAuto {
			h.slot.JoinFallback.Store(true)
		}
		h.left = &opSource{Operator: &profOp{inner: newMergeJoin(h.left, h.sorted, h.node, h.slot), slot: h.slot}}
		err = h.left.Open(ctx)
	} else {
		// The probe runs as a stage inside the probe source's workers; the
		// table is read-only now. Its rows and its own time are the join's.
		h.left.attachStages(timedFactory(h.slot, h.newProbeStage))
	}
	h.left.attachStages(h.above...)
	h.above, h.probing = nil, true
	return err
}

func (h *hashJoinOp) attachStages(f ...stageFactory) {
	if !h.probing {
		h.above = append(h.above, f...)
		return
	}
	h.left.attachStages(f...)
}

func (h *hashJoinOp) workerCount(ctx *Context) int { return h.left.workerCount(ctx) }

func (h *hashJoinOp) consume(ctx *Context, workers int, slot *OpProfile, mkSink func(w int) sinkFunc) error {
	return h.left.consume(ctx, workers, slot, mkSink)
}

func (h *hashJoinOp) newProbeStage() stage {
	return &probeStage{h: h, keys: make([]*vector.Vector, len(h.node.LeftKeys)), em: newJoinEmitter(h.node)}
}

// seqChunk is a build chunk with the sequence number its source gave it.
type seqChunk struct {
	seq   int
	chunk *vector.Chunk
}

// buildSink is one build worker's state: the chunks it keeps for the
// table, what the pool holds for them and, when the build can hand over,
// its sorter of the right side.
type buildSink struct {
	kept     []seqChunk
	reserved int64
	sorter   *extsort.Sorter
}

// build drains the build side on its workers and indexes it. Every
// worker's sink reserves and keeps its chunks with their sequence
// numbers; ordering the kept chunks by sequence gives the global build
// order, and the index then walks them in that order on the caller — so
// every row list is in build order by construction, at any worker count.
//
// The first reservation the pool refuses an inner Auto join hands the
// build over to the merge join: from then on each worker moves what it
// kept into its own sorter of the right side, returns the chunks'
// reservation and sorts every further chunk there; what a worker still
// kept when consume returns is moved on the caller. The position key
// orders every row, so the sorted right side does not depend on which
// sorter got which chunk. A build that fails, or hands over, holds no
// reservation when it returns.
func (h *hashJoinOp) build(ctx *Context) error {
	workers := h.right.workerCount(ctx)
	slot := h.slot
	sinks := make([]buildSink, workers)
	var sorters []*extsort.Sorter
	if h.sorted != nil {
		budget := splitBudget(ctx.sortBudget(), workers)
		for i := range sinks {
			sinks[i].sorter = h.sorted.newSorter(ctx, budget)
			sorters = append(sorters, sinks[i].sorter)
		}
	}
	err := h.right.consume(ctx, workers, slot, func(w int) sinkFunc {
		b := &sinks[w]
		return func(seq int, c *vector.Chunk) error {
			if !h.handedOver.Load() {
				if kept, err := h.keep(ctx, b, seqChunk{seq, c}); kept || err != nil {
					return err
				}
			}
			b.kept = append(b.kept, seqChunk{seq, c})
			return h.handOver(ctx, b)
		}
	})
	if err == nil && h.handedOver.Load() {
		for i := 0; i < workers && err == nil; i++ {
			err = h.handOver(ctx, &sinks[i])
		}
		if err == nil {
			err = h.sorted.finish(ctx, sorters)
		}
	} else if err == nil {
		var all []seqChunk
		for i := range sinks {
			all = append(all, sinks[i].kept...)
		}
		slices.SortStableFunc(all, func(a, b seqChunk) int { return a.seq - b.seq })
		h.buildChunks = make([]*vector.Chunk, len(all))
		rows := 0
		for i, b := range all {
			h.buildChunks[i] = b.chunk
			rows += b.chunk.Len()
		}
		if len(h.node.RightKeys) > 0 && uint64(rows) > math.MaxUint32 {
			err = fmt.Errorf("join build: more than 2^32 rows") // the row lists' offsets are uint32
		} else if len(h.node.RightKeys) > 0 {
			t0 := nanotime()
			h.store = newGroupStore(&plan.AggNode{GroupBy: h.node.RightKeys}, false)
			h.store.hashFilter = h.hashFilter
			err = h.index(rows)
			slot.BusyNs.Add(nanotime() - t0)
			slot.JoinBuildKeys.Store(int64(h.store.n))
			slot.JoinTableBytes.Store(h.tableBytes())
		}
	}
	if err != nil {
		h.release(ctx)
		closeSorters(sorters)
	}
	return err
}

// keep reserves a build chunk and keeps it for the table, reporting
// whether it did. A reservation the pool refuses fails a strict build
// with the pool's error and hands a build that can sort over; any other
// build keeps the chunk unreserved.
func (h *hashJoinOp) keep(ctx *Context, b *buildSink, c seqChunk) (bool, error) {
	if ctx.Pool != nil {
		need := c.chunk.HeapBytes() + int64(c.chunk.Len())*refOverhead
		if err := ctx.Pool.Reserve(need); err == nil {
			b.reserved += need
			raisePeak(&h.slot.JoinBuildBytes, h.reserved.Add(need))
		} else if h.strict {
			return false, err // ErrOutOfMemory
		} else if h.sorted != nil {
			h.handedOver.Store(true)
			return false, nil
		}
	}
	b.kept = append(b.kept, c)
	h.slot.JoinBuildRows.Add(int64(c.chunk.Len()))
	return true, nil
}

// handOver moves the chunks a build worker kept into its sorter of the
// right side after returning their reservation.
func (h *hashJoinOp) handOver(ctx *Context, b *buildSink) error {
	if b.reserved > 0 {
		h.reserved.Add(-b.reserved)
		ctx.Pool.Release(b.reserved)
		b.reserved = 0
	}
	for _, k := range b.kept {
		ext, err := h.sorted.extend(k.seq, k.chunk)
		if err != nil {
			return err
		}
		if err := b.sorter.Add(ext); err != nil {
			return err
		}
	}
	clear(b.kept)
	b.kept = b.kept[:0]
	return nil
}

// index fills the store with the build keys, a chunk at a time in build
// order, growing it the way the aggregation does, then lays each slot's
// rows out contiguously: rows counted per slot, a prefix sum, one
// scatter into refs.
//
//quack:hotpath
func (h *hashJoinOp) index(rows int) error {
	st := h.store
	var ks keyScratch
	keys := make([]*vector.Vector, len(h.node.RightKeys))
	rowSlot := make([]uint32, 0, rows)
	for ci, c := range h.buildChunks {
		n := c.Len()
		for i, e := range h.node.RightKeys {
			v, err := e.Eval(c)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		st.prepare(&ks, keys, n)
		for r := 0; ; {
			if r = st.resolve(&ks, keys, n, ci, r, true); r == n {
				break
			}
			slotCap, arenaCap, err := st.room(1, len(st.keyBuf), growDouble)
			if err != nil {
				return err
			}
			st.rebuild(nil, slotCap, arenaCap)
		}
		slots := ks.slots[:n]
		for r := range slots {
			if anyNull(keys, r) {
				slots[r] = noSlot // NULL keys never match
			}
		}
		rowSlot = append(rowSlot, slots...)
	}
	// start[s+1] counts slot s's rows; the prefix sum makes start[s] its
	// list's first index, which the scatter advances to the list's end —
	// the next list's first index, so a shift by one finishes it.
	start := make([]uint32, st.n+1)
	for _, sl := range rowSlot {
		if sl != noSlot {
			start[sl+1]++
		}
	}
	for s := 1; s <= st.n; s++ {
		start[s] += start[s-1]
	}
	refs := make([]buildRef, start[st.n])
	for ci, c := range h.buildChunks {
		for r, sl := range rowSlot[:c.Len()] {
			if sl != noSlot {
				refs[start[sl]] = makeRef(ci, r)
				start[sl]++
			}
		}
		rowSlot = rowSlot[c.Len():]
	}
	copy(start[1:], start[:st.n])
	start[0] = 0
	h.start, h.refs = start, refs
	return nil
}

func anyNull(vecs []*vector.Vector, r int) bool {
	for _, v := range vecs {
		if v.IsNull(r) {
			return true
		}
	}
	return false
}

// tableBytes is what the index holds: the store and the row lists.
func (h *hashJoinOp) tableBytes() int64 {
	return h.store.bytes() + int64(cap(h.refs))*8 + int64(cap(h.start))*4
}

// Next pulls the join output from the probe source in its order.
func (h *hashJoinOp) Next(ctx *Context) (*vector.Chunk, error) { return h.left.Next(ctx) }

// probeStage probes the shared (read-only) build side from inside a
// source worker. Each worker owns its stage instance, so the key scratch
// and the emitter's scratch never contend.
type probeStage struct {
	h       *hashJoinOp
	keys    []*vector.Vector
	scratch expr.Scratch // the keys', reset per probe chunk
	ks      keyScratch
	em      joinEmitter
}

// run joins one probe chunk against the build side: it resolves the
// chunk's keys to build slots at once, walks each hit's row list in
// build order, and the emitter does the rest.
//
//quack:hotpath
func (ps *probeStage) run(_ *Context, probe *vector.Chunk, emit func(*vector.Chunk) error) error {
	h := ps.h
	ps.scratch.Reset()
	for i, k := range h.node.LeftKeys {
		v, err := ps.scratch.Eval(k, probe)
		if err != nil {
			return err
		}
		ps.keys[i] = v
	}
	ps.em.begin(probe, emit)
	n := probe.Len()
	if len(ps.keys) == 0 {
		for r := 0; r < n; r++ {
			for _, bc := range h.buildChunks {
				for br, bn := 0, bc.Len(); br < bn; br++ {
					if err := ps.em.add(r, bc, br); err != nil {
						return err
					}
				}
			}
		}
		return ps.em.finish()
	}
	h.store.prepare(&ps.ks, ps.keys, n)
	slots := ps.ks.slots[:n]
	for r := 0; r < n; r++ {
		if r = h.store.resolve(&ps.ks, ps.keys, n, 0, r, false); r < n {
			slots[r] = noSlot // a key the build does not hold, or a NULL
		}
	}
	for r, sl := range slots {
		if sl == noSlot {
			continue
		}
		for _, ref := range h.refs[h.start[sl]:h.start[sl+1]] {
			if err := ps.em.add(r, h.buildChunks[ref.chunk()], ref.row()); err != nil {
				return err
			}
		}
	}
	return ps.em.finish()
}

// Close stops the probe before it drops the build side: the probe
// stages read buildChunks and the table from the probe source's workers,
// and only the source's Close waits for those to retire.
func (h *hashJoinOp) Close(ctx *Context) {
	h.left.Close(ctx)
	h.release(ctx)
	h.buildChunks, h.store, h.start, h.refs = nil, nil, nil, nil
	h.right.Close(ctx)
}
