package exec

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// newEquiJoin returns the adaptive equi-join operator: it builds an
// in-memory hash table when the build side fits the buffer pool budget,
// and degrades to the out-of-core merge join when it does not — the §4
// RAM-versus-CPU trade-off. LEFT joins always use the hash
// implementation (merge join here is inner-only).
func newEquiJoin(left, right source, n *plan.JoinNode) Operator {
	return &equiJoinOp{left: left, right: right, node: n}
}

type equiJoinOp struct {
	left, right source
	node        *plan.JoinNode
	impl        Operator
}

func (j *equiJoinOp) Open(ctx *Context) error {
	strategy := ctx.JoinStrategy
	if j.node.Type == plan.JoinLeft && strategy == JoinAuto {
		// LEFT joins have no merge fallback: run the hash join with the
		// budget enforced so an oversized build surfaces as an error
		// instead of silently starving the application.
		hj := newHashJoin(j.left, j.right, j.node, true)
		j.impl = hj
		return hj.Open(ctx)
	}
	switch strategy {
	case JoinForceMerge:
		if j.node.Type == plan.JoinLeft {
			return fmt.Errorf("exec: merge join does not support LEFT joins")
		}
		j.impl = newMergeJoin(j.left, j.right, j.node, nil)
		return j.impl.Open(ctx)
	case JoinForceHash:
		j.impl = newHashJoin(j.left, j.right, j.node, false)
		return j.impl.Open(ctx)
	default:
		// Register the hash join as the implementation before opening:
		// if Open fails for a reason other than memory pressure, Close
		// must still reach it to release its pool reservations.
		hj := newHashJoin(j.left, j.right, j.node, true)
		j.impl = hj
		err := hj.Open(ctx)
		if err == nil {
			return nil
		}
		if !errors.Is(err, buffer.ErrOutOfMemory) {
			return err
		}
		// The build side exceeded the memory budget: hand the chunks
		// already pulled from the right child to a merge join, which
		// sorts with spill-to-disk instead of holding a hash table. The
		// right child stays open; the merge join continues its stream.
		prefetched := hj.takeBuild(ctx)
		mj := newMergeJoin(j.left, j.right, j.node, prefetched)
		mj.rightOpen = true
		j.impl = mj
		return mj.Open(ctx)
	}
}

func (j *equiJoinOp) Next(ctx *Context) (*vector.Chunk, error) { return j.impl.Next(ctx) }

func (j *equiJoinOp) Close(ctx *Context) {
	if j.impl != nil {
		j.impl.Close(ctx)
		return
	}
	j.left.Close(ctx)
	j.right.Close(ctx)
}

// buildRef packs (chunk, row) into one int64.
type buildRef int64

func makeRef(chunk, row int) buildRef { return buildRef(int64(chunk)<<20 | int64(row)) }
func (r buildRef) chunk() int         { return int(int64(r) >> 20) }
func (r buildRef) row() int           { return int(int64(r) & (1<<20 - 1)) }

type hashJoinOp struct {
	left, right source
	node        *plan.JoinNode
	enforce     bool // respect the pool budget (Auto mode)

	buildChunks []*vector.Chunk
	ht          map[string][]buildRef
	// parts is the partitioned hash table a parallel build produces
	// instead of ht: partition p holds the keys with hashKey(key)%P==p.
	parts    []map[string][]buildRef
	reserved int64
	// reservedPar accumulates the parallel build workers' reservations.
	reservedPar atomic.Int64
	rightTypes  []types.Type
	outTypes    []types.Type
	nl          int // left column count

	keyBuf   []byte
	leftOpen bool
}

func newHashJoin(left, right source, n *plan.JoinNode, enforce bool) *hashJoinOp {
	return &hashJoinOp{left: left, right: right, node: n, enforce: enforce}
}

// takeBuild hands the materialized build chunks to a fallback strategy
// and releases the hash table's pool reservations (the fallback does
// its own accounting).
func (h *hashJoinOp) takeBuild(ctx *Context) []*vector.Chunk {
	if ctx.Pool != nil {
		if h.reserved > 0 {
			ctx.Pool.Release(h.reserved)
			h.reserved = 0
		}
		if r := h.reservedPar.Swap(0); r > 0 {
			ctx.Pool.Release(r)
		}
	}
	out := h.buildChunks
	h.buildChunks = nil
	h.ht = nil
	return out
}

func (h *hashJoinOp) Open(ctx *Context) error {
	h.nl = len(h.node.Left.Schema())
	h.outTypes = schemaTypes(h.node.Schema())
	h.rightTypes = schemaTypes(h.node.Right.Schema())

	// Build phase. A build side with several workers gets the
	// thread-local partitioned build — except when the memory budget is
	// enforced (Auto mode with a limit), where the sequential build's
	// deterministic chunk accounting keeps the merge-join fallback
	// exact. A pipeline on the build side still scans on all its workers
	// either way; only the hash-table insertion differs.
	if err := h.right.Open(ctx); err != nil {
		return err
	}
	enforced := h.enforce && ctx.Pool != nil && ctx.Pool.Limit() > 0
	if workers := h.right.workerCount(ctx); workers > 1 && !enforced {
		if err := h.parallelBuild(ctx, workers); err != nil {
			return err
		}
	} else if err := h.sequentialBuild(ctx); err != nil {
		return err
	}

	// Probe phase: the probe stage runs inside the probe source's
	// workers, and Next pulls the join output from it in the source's
	// order; the hash table is read-only now. Attach only after the probe
	// source opened successfully — an Open failure falls back to the
	// merge join, which must get the source without the stage.
	if err := h.left.Open(ctx); err != nil {
		return err
	}
	h.leftOpen = true
	h.left.attachStages(func() stage { return &probeStage{h: h} })
	return nil
}

func (h *hashJoinOp) sequentialBuild(ctx *Context) error {
	h.ht = make(map[string][]buildRef)
	refOverhead := int64(24)
	insert := func(ci int, chunk *vector.Chunk) error {
		keys := make([]*vector.Vector, len(h.node.RightKeys))
		for i, k := range h.node.RightKeys {
			v, err := k.Eval(chunk)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		for r := 0; r < chunk.Len(); r++ {
			if anyNull(keys, r) {
				continue // NULL keys never match
			}
			h.keyBuf = encodeKeyRow(h.keyBuf[:0], keys, r)
			h.ht[string(h.keyBuf)] = append(h.ht[string(h.keyBuf)], makeRef(ci, r))
		}
		return nil
	}
	for {
		chunk, err := h.right.Next(ctx)
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		if ctx.Pool != nil {
			need := chunkHeapBytes(chunk) + int64(chunk.Len())*refOverhead
			if err := ctx.Pool.Reserve(need); err != nil {
				if !h.enforce {
					// Forced hash join: account what fits, keep going.
					h.buildChunks = append(h.buildChunks, chunk)
					if err := insert(len(h.buildChunks)-1, chunk); err != nil {
						return err
					}
					continue
				}
				h.buildChunks = append(h.buildChunks, chunk)
				if h.reserved > 0 {
					ctx.Pool.Release(h.reserved)
					h.reserved = 0
				}
				return err // ErrOutOfMemory → caller falls back
			}
			h.reserved += need
		}
		h.buildChunks = append(h.buildChunks, chunk)
		if err := insert(len(h.buildChunks)-1, chunk); err != nil {
			return err
		}
	}
	return nil
}

// parallelBuild drains the build side with thread-local partitioned
// hash tables: each worker routes its rows by key hash into P per-worker
// partitions, and P merge tasks then combine the workers' slices of one
// partition each. Bucket ref lists are sorted into global build order
// afterwards, so probe output is byte-identical to the sequential
// build's. The partition count is the actual worker count
// (morsel-capped), not the raw Threads setting.
func (h *hashJoinOp) parallelBuild(ctx *Context, nparts int) error {
	refOverhead := int64(24)

	type buildWorker struct {
		chunks []*vector.Chunk
		seqs   []int
		parts  []map[string][]buildRef // refs use worker-local chunk indexes
		keyBuf []byte
	}
	var workers []*buildWorker
	err := h.right.consume(ctx, nparts, ctx.Prof.Slot(h.node), func(w int) sinkFunc {
		bw := &buildWorker{parts: make([]map[string][]buildRef, nparts)}
		for p := range bw.parts {
			bw.parts[p] = make(map[string][]buildRef)
		}
		workers = append(workers, bw)
		return func(seq int, chunk *vector.Chunk) error {
			if ctx.Pool != nil {
				need := chunkHeapBytes(chunk) + int64(chunk.Len())*refOverhead
				// Unenforced build: account what fits, keep going.
				if err := ctx.Pool.Reserve(need); err == nil {
					h.reservedPar.Add(need)
				}
			}
			local := len(bw.chunks)
			bw.chunks = append(bw.chunks, chunk)
			bw.seqs = append(bw.seqs, seq)
			keys := make([]*vector.Vector, len(h.node.RightKeys))
			for i, k := range h.node.RightKeys {
				v, err := k.Eval(chunk)
				if err != nil {
					return err
				}
				keys[i] = v
			}
			for r := 0; r < chunk.Len(); r++ {
				if anyNull(keys, r) {
					continue // NULL keys never match
				}
				bw.keyBuf = encodeKeyRow(bw.keyBuf[:0], keys, r)
				m := bw.parts[hashKey(bw.keyBuf)%uint64(nparts)]
				m[string(bw.keyBuf)] = append(m[string(bw.keyBuf)], makeRef(local, r))
			}
			return nil
		}
	})
	if err != nil {
		return err
	}

	// Renumber the workers' chunks into global build order (by morsel
	// sequence) — the order the sequential build would have seen.
	type chunkPos struct{ w, local, seq int }
	var all []chunkPos
	for w, bw := range workers {
		for local, seq := range bw.seqs {
			all = append(all, chunkPos{w: w, local: local, seq: seq})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	globalIdx := make([][]int, len(workers))
	for w, bw := range workers {
		globalIdx[w] = make([]int, len(bw.chunks))
	}
	h.buildChunks = make([]*vector.Chunk, len(all))
	for g, cp := range all {
		h.buildChunks[g] = workers[cp.w].chunks[cp.local]
		globalIdx[cp.w][cp.local] = g
	}

	// Merge: one scheduler task per partition, partitions in parallel
	// on the engine-wide pool (pure compute; tasks never block).
	h.parts = make([]map[string][]buildRef, nparts)
	var wg sync.WaitGroup
	q := ctx.queryTasks()
	for p := 0; p < nparts; p++ {
		p := p
		wg.Add(1)
		q.Submit(func() {
			defer wg.Done()
			merged := make(map[string][]buildRef)
			for w, bw := range workers {
				gi := globalIdx[w]
				for key, refs := range bw.parts[p] {
					dst := merged[key]
					for _, ref := range refs {
						dst = append(dst, makeRef(gi[ref.chunk()], ref.row()))
					}
					merged[key] = dst
				}
			}
			// Packed refs order exactly as (global chunk, row).
			for _, refs := range merged {
				sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
			}
			h.parts[p] = merged
		})
	}
	wg.Wait()
	return nil
}

// lookup returns the build rows matching an encoded key, in global
// build order, regardless of which build produced the table.
func (h *hashJoinOp) lookup(key []byte) []buildRef {
	if h.parts != nil {
		return h.parts[hashKey(key)%uint64(len(h.parts))][string(key)]
	}
	return h.ht[string(key)]
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

// Next pulls the join output from the probe source: the probe stage
// runs inside its workers and the stream is already in source order.
func (h *hashJoinOp) Next(ctx *Context) (*vector.Chunk, error) { return h.left.Next(ctx) }

// probeStage probes the shared (read-only) hash table from inside a
// source worker. Each worker owns its stage instance, so the key buffer
// never contends.
type probeStage struct {
	h      *hashJoinOp
	keyBuf []byte
}

func (ps *probeStage) run(ctx *Context, c *vector.Chunk, emit func(*vector.Chunk) error) error {
	var err error
	ps.keyBuf, err = ps.h.probeChunk(c, ps.keyBuf, emit)
	return err
}

// probeChunk joins one probe chunk against the build table, emitting
// matched (and, for LEFT joins, padded unmatched) chunks. It only reads
// shared state, so any number of workers may run it concurrently with
// their own key buffers.
func (h *hashJoinOp) probeChunk(probe *vector.Chunk, keyBuf []byte, emit func(*vector.Chunk) error) ([]byte, error) {
	keys := make([]*vector.Vector, len(h.node.LeftKeys))
	for i, k := range h.node.LeftKeys {
		v, err := k.Eval(probe)
		if err != nil {
			return keyBuf, err
		}
		keys[i] = v
	}
	n := probe.Len()
	matched := make([]bool, n)

	cand := vector.NewChunk(h.outTypes)
	var candProbe []int
	flush := func() error {
		if cand.Len() == 0 {
			return nil
		}
		keep := cand
		probeRows := candProbe
		if h.node.Extra != nil {
			mask, err := h.node.Extra.Eval(cand)
			if err != nil {
				return err
			}
			sel := expr.SelectTrue(mask, nil)
			if len(sel) < cand.Len() {
				filtered := vector.NewChunk(h.outTypes)
				cand.CompactInto(filtered, sel)
				keep = filtered
				probeRows = make([]int, len(sel))
				for i, s := range sel {
					probeRows[i] = candProbe[s]
				}
			}
		}
		for _, pr := range probeRows {
			matched[pr] = true
		}
		if keep.Len() > 0 {
			if err := emit(keep); err != nil {
				return err
			}
		}
		cand = vector.NewChunk(h.outTypes)
		candProbe = nil
		return nil
	}

	for r := 0; r < n; r++ {
		if anyNull(keys, r) {
			continue
		}
		keyBuf = encodeKeyRow(keyBuf[:0], keys, r)
		for _, ref := range h.lookup(keyBuf) {
			bc := h.buildChunks[ref.chunk()]
			br := ref.row()
			row := cand.Len()
			cand.SetLen(row + 1)
			for c := 0; c < h.nl; c++ {
				if probe.Cols[c].IsNull(r) {
					cand.Cols[c].SetNull(row)
				} else {
					cand.Cols[c].Set(row, probe.Cols[c].Get(r))
				}
			}
			for c := 0; c < len(h.rightTypes); c++ {
				if bc.Cols[c].IsNull(br) {
					cand.Cols[h.nl+c].SetNull(row)
				} else {
					cand.Cols[h.nl+c].Set(row, bc.Cols[c].Get(br))
				}
			}
			candProbe = append(candProbe, r)
			if cand.Len() == vector.ChunkCapacity {
				if err := flush(); err != nil {
					return keyBuf, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return keyBuf, err
	}

	if h.node.Type == plan.JoinLeft {
		outer := vector.NewChunk(h.outTypes)
		for r := 0; r < n; r++ {
			if matched[r] {
				continue
			}
			row := outer.Len()
			outer.SetLen(row + 1)
			for c := 0; c < h.nl; c++ {
				if probe.Cols[c].IsNull(r) {
					outer.Cols[c].SetNull(row)
				} else {
					outer.Cols[c].Set(row, probe.Cols[c].Get(r))
				}
			}
			for c := 0; c < len(h.rightTypes); c++ {
				outer.Cols[h.nl+c].SetNull(row)
			}
			if outer.Len() == vector.ChunkCapacity {
				if err := emit(outer); err != nil {
					return keyBuf, err
				}
				outer = vector.NewChunk(h.outTypes)
			}
		}
		if outer.Len() > 0 {
			if err := emit(outer); err != nil {
				return keyBuf, err
			}
		}
	}
	return keyBuf, nil
}

func (h *hashJoinOp) Close(ctx *Context) {
	if ctx.Pool != nil && h.reserved > 0 {
		ctx.Pool.Release(h.reserved)
		h.reserved = 0
	}
	if ctx.Pool != nil {
		if r := h.reservedPar.Swap(0); r > 0 {
			ctx.Pool.Release(r)
		}
	}
	h.ht = nil
	h.parts = nil
	h.buildChunks = nil
	if h.leftOpen {
		h.left.Close(ctx)
	}
	h.right.Close(ctx)
}

// chunkHeapBytes estimates a chunk's resident size for pool accounting.
func chunkHeapBytes(c *vector.Chunk) int64 {
	var total int64
	for _, col := range c.Cols {
		n := int64(col.Len())
		switch col.Type {
		case types.Varchar:
			for _, s := range col.Str {
				total += int64(len(s)) + 16
			}
		case types.Boolean:
			total += n
		case types.Integer:
			total += 4 * n
		default:
			total += 8 * n
		}
	}
	return total
}
