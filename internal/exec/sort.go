package exec

import (
	"repro/internal/expr"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// sortOp is the ORDER BY pipeline breaker: each worker of the source
// evaluates the sort keys and feeds its own external sorter (building
// sorted runs independently, sharing the sort budget and buffer pool,
// spilling to disk past the budget), and Finish k-way merges every
// worker's runs and in-memory buffers through the extsort merge
// machinery.
//
// Determinism: rows carry a hidden tiebreak key — their packed
// (seq, row) position in the source's stream — appended after the
// user's sort keys. Key-equal rows therefore emerge in input order, and
// the merged order is a total order independent of which worker sorted
// which morsel, making output bit-identical at every thread count.
type sortOp struct {
	src  source
	node *plan.SortNode

	iter    *extsort.Iterator
	merge   *parMergeStream // partitioned merge phase (nil: serial merge)
	carry   *vector.Chunk   // repack buffer aligning chunk boundaries
	rem     *vector.Chunk   // unconsumed tail of the last merged chunk
	remPos  int
	np      int // payload column count
	started bool
}

func newSortOp(src source, n *plan.SortNode) *sortOp {
	return &sortOp{src: src, node: n}
}

func (s *sortOp) Open(ctx *Context) error {
	s.started = false
	s.iter = nil
	s.merge = nil
	s.carry = nil
	s.rem, s.remPos = nil, 0
	return s.src.Open(ctx)
}

func (s *sortOp) Next(ctx *Context) (*vector.Chunk, error) {
	if !s.started {
		if err := s.build(ctx); err != nil {
			return nil, err
		}
		s.started = true
	}
	chunk, err := s.nextSorted()
	if err != nil || chunk == nil {
		return nil, err
	}
	// Strip the appended key and tiebreak columns.
	out := &vector.Chunk{Cols: chunk.Cols[:s.np]}
	out.SetLen(chunk.Len())
	return out, nil
}

// nextSorted streams the merge phase. The partitioned merge emits a
// partial chunk at every range boundary, so its output is repacked into
// full ChunkCapacity chunks — the exact boundaries the serial merge
// produces, keeping the operator's chunk stream identical at every
// thread count.
func (s *sortOp) nextSorted() (*vector.Chunk, error) {
	if s.merge == nil {
		return s.iter.Next()
	}
	for {
		if s.rem != nil {
			if s.carry == nil && s.remPos == 0 && s.rem.Len() == vector.ChunkCapacity {
				out := s.rem
				s.rem = nil
				return out, nil
			}
			if s.carry == nil {
				s.carry = vector.NewChunk(s.rem.Types())
			}
			take := vector.ChunkCapacity - s.carry.Len()
			if rest := s.rem.Len() - s.remPos; take > rest {
				take = rest
			}
			for ci, col := range s.carry.Cols {
				col.AppendRange(s.rem.Cols[ci], s.remPos, take)
			}
			s.carry.SetLen(s.carry.Cols[0].Len())
			s.remPos += take
			if s.remPos == s.rem.Len() {
				s.rem = nil
			}
			if s.carry.Len() == vector.ChunkCapacity {
				out := s.carry
				s.carry = nil
				return out, nil
			}
			continue
		}
		c, err := s.merge.Next()
		if err != nil {
			return nil, err
		}
		if c == nil { // tail: the stream's only partial chunk
			out := s.carry
			s.carry = nil
			return out, nil
		}
		s.rem, s.remPos = c, 0
	}
}

func (s *sortOp) build(ctx *Context) error {
	payload := schemaTypes(s.node.Child.Schema())
	s.np = len(payload)
	nk := len(s.node.Keys)
	extTypes := append(append([]types.Type(nil), payload...), keyTypesOf(s.node)...)
	extTypes = append(extTypes, types.BigInt) // hidden (morsel, row) tiebreak
	keys := make([]extsort.Key, nk+1)
	for i, k := range s.node.Keys {
		keys[i] = extsort.Key{Col: s.np + i, Desc: k.Desc, NullsFirst: k.NullsFirst}
	}
	keys[nk] = extsort.Key{Col: s.np + nk}

	// Split the budget across the actual worker count (bounded by
	// morsels), keeping the memory envelope that of one sorter.
	workers := s.src.workerCount(ctx)
	budget := splitBudget(ctx.sortBudget(), workers)

	// mkSink runs on the coordinating goroutine and the sorters are only
	// merged after consume has joined every worker, so the slice needs
	// no locking; the shared buffer pool is internally synchronized.
	var sorters []*extsort.Sorter
	err := s.src.consume(ctx, workers, ctx.Prof.Slot(s.node), func(w int) sinkFunc {
		sorter := extsort.NewSorter(extTypes, keys, budget, ctx.TmpDir)
		if ctx.Pool != nil {
			sorter.SetPool(ctx.Pool)
		}
		sorters = append(sorters, sorter)
		keyExprs := keyExprsOf(s.node)
		return func(seq int, chunk *vector.Chunk) error {
			ext, err := extendWithKeys(chunk, keyExprs)
			if err != nil {
				return err
			}
			tie := vector.NewLen(types.BigInt, chunk.Len())
			for r := 0; r < chunk.Len(); r++ {
				tie.I64[r] = packAggPos(seq, r)
			}
			ext.Cols = append(ext.Cols, tie)
			return sorter.Add(ext)
		}
	})
	if err != nil {
		for _, sorter := range sorters {
			sorter.Close()
		}
		return err
	}
	iter, err := extsort.MergeFinish(sorters)
	if err != nil {
		for _, sorter := range sorters {
			sorter.Close()
		}
		return err
	}
	var spilled int64
	for _, sorter := range sorters {
		spilled += sorter.SpilledBytes()
	}
	recordSortSpill(ctx, s.node, spilled)
	s.iter = iter

	// Partitioned merge phase: split the cursors' key domain at sampled
	// quantiles and let ctx.Threads workers each loser-tree-merge their
	// own range. The hidden tiebreak makes the keys a total order, so
	// ranges are exact and the re-emitted concatenation is bit-identical
	// to the serial merge. PartitionMerge returns nil on skew/tiny
	// inputs — then the serial loser-tree merge stands. A source that
	// generated its runs on one worker keeps the serial merge too: every
	// range holds its own loaded chunk per run, and a budget that one
	// worker's run generation fitted into need not cover that.
	if workers > 1 {
		parts, err := iter.PartitionMerge(ctx.Threads, keys)
		if err != nil {
			iter.Close()
			s.iter = nil
			return err
		}
		if len(parts) > 1 {
			s.merge = newParMergeStream(ctx, parts, chunkCursor)
		}
	}
	return nil
}

// mergeRows reports rows emitted per merge-phase worker (test hook;
// valid after the stream has drained).
func (s *sortOp) mergeRows() []int64 {
	if s.merge == nil {
		return nil
	}
	return s.merge.rows
}

func (s *sortOp) Close(ctx *Context) {
	if s.merge != nil {
		s.merge.Close() // join range workers before their files close
		s.merge = nil
	}
	if s.iter != nil {
		recordSortKeys(ctx, s.node, s.iter)
		s.iter.Close()
		s.iter = nil
	}
	s.carry, s.rem = nil, nil
	s.src.Close(ctx)
}

// splitBudget divides a sort budget among the sorters of one operator
// (0 stays 0: unlimited).
func splitBudget(budget int64, workers int) int64 {
	if budget > 0 && workers > 1 {
		budget /= int64(workers)
		if budget < 1 {
			budget = 1
		}
	}
	return budget
}

func keyTypesOf(n *plan.SortNode) []types.Type {
	out := make([]types.Type, len(n.Keys))
	for i, k := range n.Keys {
		out[i] = k.Expr.Type()
	}
	return out
}

// keyExprsOf returns the sort keys' expressions, ready for
// extendWithKeys (shared with the merge join's run builder).
func keyExprsOf(n *plan.SortNode) []expr.Expr {
	out := make([]expr.Expr, len(n.Keys))
	for i, k := range n.Keys {
		out[i] = k.Expr
	}
	return out
}
