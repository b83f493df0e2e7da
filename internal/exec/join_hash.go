package exec

import (
	"slices"
	"sync"
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
// indexed by a partitioned hash table; a join without keys (CROSS, a
// non-equi condition) has no table and every build row is a candidate
// for every probe row. Either way candidates come in global build order
// and joinEmitter turns them into output.
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
	// parts is the hash table: partition p maps the encoded keys with
	// partOf(key) == p to their build rows, in build order.
	parts []map[string][]buildRef
	// reserved is what the pool holds for buildChunks and parts.
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

// builtChunk is one chunk of the build side with its rows' keys, encoded
// once by the worker that produced it.
type builtChunk struct {
	seq   int
	chunk *vector.Chunk
	keys  []byte  // the rows' encoded keys, back to back
	ends  []int32 // row r's key is keys[ends[r-1]:ends[r]]
	part  []int32 // row r's partition; -1 for a NULL key, which never matches
}

// build drains the build side and indexes it. Every worker's sink
// reserves and keeps its chunks with their sequence numbers and encoded
// keys; ordering the kept chunks by sequence gives the global build
// order, and partition p's map is then filled by one task that walks the
// chunks in that order and inserts the rows whose key selects p — so
// every ref list is in build order by construction, at any worker count.
// A build that fails holds no reservation when it returns.
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
	if len(h.node.RightKeys) > 0 {
		h.parts = make([]map[string][]buildRef, workers)
	}

	sinks := make([][]builtChunk, workers)
	err := src.consume(ctx, workers, slot, func(w int) sinkFunc {
		keyVecs := make([]*vector.Vector, len(h.node.RightKeys))
		return func(seq int, c *vector.Chunk) error {
			b := builtChunk{seq: seq, chunk: c}
			var err error
			if ctx.Pool != nil {
				need := c.HeapBytes() + int64(c.Len())*refOverhead
				if rerr := ctx.Pool.Reserve(need); rerr == nil {
					h.reserved.Add(need)
				} else if enforced {
					h.overBudget, err = true, rerr // ErrOutOfMemory → Auto falls back
				} // else: forced or keyless build, account what fits and keep going
			}
			if err == nil {
				err = h.encodeKeys(&b, keyVecs)
			}
			// Kept either way: the chunk that overflows the budget still
			// goes to the fallback.
			sinks[w] = append(sinks[w], b)
			return err
		}
	})
	var all []builtChunk
	for _, s := range sinks {
		all = append(all, s...)
	}
	slices.SortStableFunc(all, func(a, b builtChunk) int { return a.seq - b.seq })
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
	if err != nil {
		h.release(ctx)
		return err
	}

	fill := func(p int) {
		var t0 time.Time
		if slot != nil {
			t0 = time.Now()
		}
		m := make(map[string][]buildRef)
		for ci, b := range all {
			start := int32(0)
			for r, end := range b.ends {
				if b.part[r] == int32(p) {
					m[string(b.keys[start:end])] = append(m[string(b.keys[start:end])], makeRef(ci, r))
				}
				start = end
			}
		}
		h.parts[p] = m
		if slot != nil {
			slot.BusyNs.Add(time.Since(t0).Nanoseconds())
		}
	}
	switch len(h.parts) {
	case 0: // no keys, no table
	case 1:
		fill(0)
	default:
		// One scheduler task per partition (pure compute; tasks never block).
		var wg sync.WaitGroup
		q := ctx.queryTasks()
		for p := range h.parts {
			wg.Add(1)
			q.Submit(func() {
				defer wg.Done()
				fill(p)
			})
		}
		wg.Wait()
	}
	return nil
}

// encodeKeys evaluates the build keys over b's chunk and encodes every
// row's key, once, along with the partition it selects. keyVecs is the
// calling worker's scratch.
func (h *hashJoinOp) encodeKeys(b *builtChunk, keyVecs []*vector.Vector) error {
	if len(keyVecs) == 0 {
		return nil
	}
	for i, e := range h.node.RightKeys {
		v, err := e.Eval(b.chunk)
		if err != nil {
			return err
		}
		keyVecs[i] = v
	}
	n := b.chunk.Len()
	b.keys = make([]byte, 0, n*9*len(keyVecs)) // exact for fixed-width keys
	b.ends, b.part = make([]int32, n), make([]int32, n)
	for r := 0; r < n; r++ {
		b.part[r] = -1
		if !anyNull(keyVecs, r) {
			start := len(b.keys)
			b.keys = encodeKeyRow(b.keys, keyVecs, r)
			b.part[r] = int32(h.partOf(b.keys[start:]))
		}
		b.ends[r] = int32(len(b.keys))
	}
	return nil
}

// partOf routes an encoded key to its partition.
func (h *hashJoinOp) partOf(key []byte) int {
	if len(h.parts) == 1 {
		return 0
	}
	return int(hashKey(key) % uint64(len(h.parts)))
}

// lookup returns the build rows matching an encoded key, in global
// build order.
func (h *hashJoinOp) lookup(key []byte) []buildRef {
	return h.parts[h.partOf(key)][string(key)]
}

// hashKey is FNV-1a; it only routes keys to partitions (the partition
// maps still compare full keys).
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func anyNull(vecs []*vector.Vector, r int) bool {
	for _, v := range vecs {
		if v.IsNull(r) {
			return true
		}
	}
	return false
}

// Next pulls the join output from the probe source in its order.
func (h *hashJoinOp) Next(ctx *Context) (*vector.Chunk, error) { return h.left.Next(ctx) }

// probeStage probes the shared (read-only) build side from inside a
// source worker. Each worker owns its stage instance, so the key buffer
// and the emitter's scratch never contend.
type probeStage struct {
	h      *hashJoinOp
	keys   []*vector.Vector
	keyBuf []byte
	em     joinEmitter
}

// run joins one probe chunk against the build side: it names each probe
// row's candidates in build order and the emitter does the rest.
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
	for r, n := 0, probe.Len(); r < n; r++ {
		if len(ps.keys) == 0 {
			for _, bc := range h.buildChunks {
				for br, bn := 0, bc.Len(); br < bn; br++ {
					if err := ps.em.add(r, bc, br); err != nil {
						return err
					}
				}
			}
			continue
		}
		if anyNull(ps.keys, r) {
			continue // NULL keys never match
		}
		ps.keyBuf = encodeKeyRow(ps.keyBuf[:0], ps.keys, r)
		for _, ref := range h.lookup(ps.keyBuf) {
			if err := ps.em.add(r, h.buildChunks[ref.chunk()], ref.row()); err != nil {
				return err
			}
		}
	}
	return ps.em.finish()
}

// Close stops the probe before it drops the build side: the probe
// stages read buildChunks and parts from the probe source's workers, and
// only the source's Close waits for those to retire.
func (h *hashJoinOp) Close(ctx *Context) {
	h.left.Close(ctx)
	h.release(ctx)
	h.buildChunks, h.parts = nil, nil
	h.right.Close(ctx)
}
