package exec

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/plan"
	"repro/internal/vector"
)

// newEquiJoin returns the adaptive equi-join operator: it builds an
// in-memory hash table when the build side fits the buffer pool budget,
// and degrades to the out-of-core merge join when it does not — the §4
// RAM-versus-CPU trade-off. LEFT joins always use the hash
// implementation (merge join here is inner-only).
func newEquiJoin(left, right source, n *plan.JoinNode) source {
	return &equiJoinOp{source: newHashJoin(left, right, n, false), node: n}
}

// equiJoinOp is a source that forwards to the join it runs: the hash
// join until Open hands over to the merge join behind opSource.
type equiJoinOp struct {
	source
	node *plan.JoinNode
}

func (j *equiJoinOp) Open(ctx *Context) error {
	hj := j.source.(*hashJoinOp)
	if ctx.JoinStrategy == JoinForceMerge {
		return j.openMerge(ctx, hj, newMergeJoin(hj.left, hj.right, j.node, nil))
	}
	// Auto enforces the budget on the build.
	hj.enforce = ctx.JoinStrategy == JoinAuto
	err := hj.Open(ctx)
	if !hj.overBudget || j.node.Type == plan.JoinLeft {
		// LEFT joins have no merge fallback: an oversized build surfaces as
		// an error instead of silently starving the application.
		return err
	}
	// The build side exceeded the memory budget: hand the chunks already
	// pulled from the right child to a merge join, which sorts with
	// spill-to-disk instead of holding a hash table (the failed build
	// holds no reservation). Both children stay open; the merge join
	// continues the right child's stream.
	if slot := ctx.Prof.Slot(j.node); slot != nil {
		slot.JoinFallback.Store(true)
	}
	mj := newMergeJoin(hj.left, hj.right, j.node, hj.buildChunks)
	mj.opened = true
	return j.openMerge(ctx, hj, mj)
}

// openMerge runs the merge join in place of the unopened or failed hash
// join hj: a plain operator behind opSource, which counts its rows into
// the join's profile slot and runs the stages attached above the join.
func (j *equiJoinOp) openMerge(ctx *Context, hj *hashJoinOp, mj *mergeJoinOp) error {
	src := &opSource{Operator: ctx.Prof.wrap(mj, j.node)}
	src.attachStages(hj.above...)
	j.source = src
	return src.Open(ctx)
}

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
// Once built, the join is a source: its probe is a stage of the probe
// source, stages a parent attaches run behind it, and a breaker above
// the join consumes the probe output on the probe source's workers.
type hashJoinOp struct {
	left, right source
	node        *plan.JoinNode
	enforce     bool // respect the pool budget (Auto mode)

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
	// overBudget: the enforced build stopped at a refused reservation.
	// buildChunks then holds what was pulled so far, the refused chunk
	// included, for the merge join to take over.
	overBudget bool
}

func newHashJoin(left, right source, n *plan.JoinNode, enforce bool) *hashJoinOp {
	return &hashJoinOp{left: left, right: right, node: n, enforce: enforce}
}

// refOverhead is the table's share of a build row's reservation.
const refOverhead = 24

func (h *hashJoinOp) release(ctx *Context) {
	if r := h.reserved.Swap(0); r > 0 {
		ctx.Pool.Release(r)
	}
}

// Open opens both children before it builds. Once the build has reserved
// anything there is nothing left to open, so a reservation the build was
// refused is the only way this join exceeds its budget, and the merge
// fallback finds both children open: no child is ever opened twice.
func (h *hashJoinOp) Open(ctx *Context) error {
	if err := h.right.Open(ctx); err != nil {
		return err
	}
	if err := h.left.Open(ctx); err != nil {
		return err
	}
	if err := h.build(ctx); err != nil {
		return err
	}
	// The probe runs as a stage inside the probe source's workers; the
	// table is read-only now. The stage is attached only to a finished
	// build: the merge fallback reads the source without it. Its rows
	// and its own time are the join's.
	h.left.attachStages(timedFactory(ctx.Prof.Slot(h.node), h.newProbeStage))
	h.left.attachStages(h.above...)
	h.above, h.probing = nil, true
	return nil
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

// build drains the build side and indexes it. Every worker's sink
// reserves and keeps its chunks with their sequence numbers; ordering
// the kept chunks by sequence gives the global build order, and the
// index then walks them in that order on the caller — so every row list
// is in build order by construction, at any worker count. A build that
// fails holds no reservation when it returns.
func (h *hashJoinOp) build(ctx *Context) error {
	// Under an enforced budget the caller pulls the source through Next,
	// one chunk at a time: a refused reservation leaves the stream just
	// past the refused chunk, where the merge join resumes it.
	src := h.right
	enforced := h.enforce && ctx.Pool != nil && ctx.Pool.Limit() > 0
	if enforced {
		src = &opSource{Operator: h.right}
	}
	workers := src.workerCount(ctx)
	slot := ctx.Prof.Slot(h.node)

	type seqChunk struct {
		seq   int
		chunk *vector.Chunk
	}
	sinks := make([][]seqChunk, workers)
	err := src.consume(ctx, workers, slot, func(w int) sinkFunc {
		return func(seq int, c *vector.Chunk) error {
			var err error
			if ctx.Pool != nil {
				need := c.HeapBytes() + int64(c.Len())*refOverhead
				if rerr := ctx.Pool.Reserve(need); rerr == nil {
					h.reserved.Add(need)
				} else if enforced {
					h.overBudget, err = true, rerr // ErrOutOfMemory → Auto falls back
				} // else: forced or keyless build, account what fits and keep going
			}
			// Kept either way: the chunk that overflows the budget still
			// goes to the fallback.
			sinks[w] = append(sinks[w], seqChunk{seq, c})
			return err
		}
	})
	all := slices.Concat(sinks...)
	slices.SortStableFunc(all, func(a, b seqChunk) int { return a.seq - b.seq })
	h.buildChunks = make([]*vector.Chunk, len(all))
	rows := 0
	for i, b := range all {
		h.buildChunks[i] = b.chunk
		rows += b.chunk.Len()
	}
	if slot != nil {
		slot.JoinBuildRows.Store(int64(rows))
		slot.JoinBuildBytes.Store(h.reserved.Load())
	}
	if err == nil && len(h.node.RightKeys) > 0 && uint64(rows) > math.MaxUint32 {
		err = fmt.Errorf("join build: more than 2^32 rows") // the row lists' offsets are uint32
	}
	if err == nil && len(h.node.RightKeys) > 0 {
		t0 := time.Now()
		h.store = newGroupStore(&plan.AggNode{GroupBy: h.node.RightKeys}, false)
		h.store.hashFilter = h.hashFilter
		err = h.index(rows)
		if slot != nil {
			slot.BusyNs.Add(time.Since(t0).Nanoseconds())
			slot.JoinBuildKeys.Store(int64(h.store.n))
			slot.JoinTableBytes.Store(h.tableBytes())
		}
	}
	if err != nil {
		h.release(ctx)
	}
	return err
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
	h    *hashJoinOp
	keys []*vector.Vector
	ks   keyScratch
	em   joinEmitter
}

// run joins one probe chunk against the build side: it resolves the
// chunk's keys to build slots at once, walks each hit's row list in
// build order, and the emitter does the rest.
//
//quack:hotpath
func (ps *probeStage) run(_ *Context, probe *vector.Chunk, emit func(*vector.Chunk) error) error {
	h := ps.h
	for i, k := range h.node.LeftKeys {
		v, err := k.Eval(probe)
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
