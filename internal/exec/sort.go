package exec

import (
	"cmp"
	"sync"

	"repro/internal/expr"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/types"
	"repro/internal/vector"
)

// sortedStream is the one sort phase: ORDER BY, the window partitioner
// and both sides of the merge join run on it. Each worker of the source
// widens its chunks with extend and feeds its own external sorter
// (building sorted runs independently, sharing the sort budget and
// buffer pool, spilling to disk past the budget) — fill — and finish
// k-way merges every worker's runs and in-memory buffers through the
// extsort merge machinery. All lay their sorted rows out by one rule,
// sortLayout.
//
// Determinism: extend closes every row with a hidden tiebreak key — its
// packed (seq, row) position in the source's stream (positionColumn) —
// after the caller's keys. Key-equal rows therefore emerge in input
// order, and the merged order is a total order independent of which
// worker sorted which morsel, making the stream bit-identical at every
// thread count.
type sortedStream struct {
	src  source
	slot *OpProfile // the operator's profile slot

	extTypes []types.Type  // extend's output schema
	keys     []extsort.Key // over extTypes, the tiebreak last
	// rangeKeys is the prefix of keys the partitioned merge cuts its
	// ranges on: all of them for a plain sort, the PARTITION BY columns
	// for a window (no partition may straddle two ranges), none to keep
	// the merge serial.
	rangeKeys []extsort.Key
	extend    func(seq int, chunk *vector.Chunk) (*vector.Chunk, error)
	// cursor turns one merge range — the whole serial merge is one —
	// into the batches the stream emits for it (chunkCursor forwards the
	// chunks as merged).
	cursor func(ctx *Context, part *extsort.Iterator) rangeCursor

	iter  *extsort.Iterator
	merge *orderedStream // partitioned merge phase (nil: serial merge)
	out   batchReader    // what Next drains; unset until built
}

func (s *sortedStream) Open(ctx *Context) error {
	s.iter, s.merge, s.out = nil, nil, batchReader{}
	return s.src.Open(ctx)
}

// positionColumn is the hidden tiebreak column of the chunk the source
// numbered seq.
func positionColumn(seq, n int) *vector.Vector {
	tie := vector.NewLen(types.BigInt, n)
	for r := 0; r < n; r++ {
		tie.I64[r] = packAggPos(seq, r)
	}
	return tie
}

// sortLayout is the one row layout of a sortedStream: the payload
// columns, then every key that is not a plain payload column, evaluated,
// then the hidden position column. A key that is a *expr.ColRef into the
// payload sorts on that payload column itself, so the sorted row carries
// no copy of it. It returns the sorted rows' types, the sort keys (one
// per key, then the position) and the extend that widens a payload
// chunk into that layout.
func sortLayout(payload []types.Type, keys []plan.SortKey) ([]types.Type, []extsort.Key, func(seq int, chunk *vector.Chunk) (*vector.Chunk, error)) {
	extTypes := append([]types.Type(nil), payload...)
	sortKeys := make([]extsort.Key, 0, len(keys)+1)
	var evals []expr.Expr
	for _, k := range keys {
		col := len(extTypes)
		if c, ok := k.Expr.(*expr.ColRef); ok && c.Idx < len(payload) && payload[c.Idx] == c.Typ {
			col = c.Idx
		} else {
			evals = append(evals, k.Expr)
			extTypes = append(extTypes, k.Expr.Type())
		}
		sortKeys = append(sortKeys, extsort.Key{Col: col, Desc: k.Desc, NullsFirst: k.NullsFirst})
	}
	sortKeys = append(sortKeys, extsort.Key{Col: len(extTypes)})
	extTypes = append(extTypes, types.BigInt)
	extend := func(seq int, chunk *vector.Chunk) (*vector.Chunk, error) {
		cols := make([]*vector.Vector, 0, len(extTypes))
		cols = append(cols, chunk.Cols...)
		for _, e := range evals {
			v, err := e.Eval(chunk)
			if err != nil {
				return nil, err
			}
			cols = append(cols, v)
		}
		cols = append(cols, positionColumn(seq, chunk.Len()))
		ext := &vector.Chunk{Cols: cols}
		ext.SetLen(chunk.Len())
		return ext, nil
	}
	return extTypes, sortKeys, extend
}

// newSorter is one producer's external sorter of the stream's rows.
func (s *sortedStream) newSorter(ctx *Context, budget int64) *extsort.Sorter {
	sorter := extsort.NewSorter(s.extTypes, s.keys, budget, ctx.TmpDir)
	if ctx.Pool != nil {
		sorter.SetPool(ctx.Pool)
	}
	return sorter
}

// fill drains the source on its workers, each into a sorter of its own.
// The budget is split across the actual worker count (bounded by
// morsels), keeping the memory envelope that of one sorter. A failed
// fill closes its sorters.
func (s *sortedStream) fill(ctx *Context) ([]*extsort.Sorter, error) {
	workers := s.src.workerCount(ctx)
	budget := splitBudget(ctx.sortBudget(), workers)
	// mkSink runs on the coordinating goroutine and the sorters are only
	// merged after consume has joined every worker, so the slice needs
	// no locking; the shared buffer pool is internally synchronized.
	var sorters []*extsort.Sorter
	err := s.src.consume(ctx, workers, s.slot, func(w int) sinkFunc {
		sorter := s.newSorter(ctx, budget)
		sorters = append(sorters, sorter)
		return func(seq int, chunk *vector.Chunk) error {
			ext, err := s.extend(seq, chunk)
			if err != nil {
				return err
			}
			return sorter.Add(ext)
		}
	})
	if err != nil {
		closeSorters(sorters)
		return nil, err
	}
	return sorters, nil
}

func closeSorters(sorters []*extsort.Sorter) {
	for _, sorter := range sorters {
		sorter.Close()
	}
}

// finish turns filled sorters into the stream: it seals their tails in
// parallel, merges them, books their spill and sets up the merge phase.
// The sorters are the stream's from here on, even on error.
func (s *sortedStream) finish(ctx *Context, sorters []*extsort.Sorter) error {
	var err error
	if len(sorters) > 1 {
		err = sealSorters(ctx, sorters, s.slot)
	}
	var iter *extsort.Iterator
	if err == nil {
		iter, err = extsort.MergeFinish(sorters)
	}
	if err != nil {
		closeSorters(sorters)
		return err
	}
	var spilled int64
	for _, sorter := range sorters {
		spilled += sorter.SpilledBytes()
	}
	recordSortSpill(ctx, s.slot, spilled)
	s.iter = iter

	// Partitioned merge phase: cut the merge into row ranges at sampled
	// quantiles of the range keys and let ctx.Threads workers each
	// loser-tree-merge their own range (and run cursor over it). The
	// concatenated ranges are the serial merge; under the full keys they
	// end on chunk boundaries, so even the chunks are the serial merge's.
	// PartitionMerge returns nil on skew/tiny inputs and for an
	// empty range-key prefix — then the serial loser-tree merge stands.
	// Runs generated by one producer keep the serial merge too: every
	// range holds its own loaded chunk per run, and a budget that one
	// producer's run generation fitted into need not cover that.
	ranges := 1
	if len(sorters) > 1 {
		parts, err := iter.PartitionMerge(ctx.Threads, s.rangeKeys)
		if err != nil {
			iter.Close()
			s.iter = nil
			return err
		}
		if len(parts) > 1 {
			s.merge = newMergeStream(ctx, parts, s.cursor)
			s.out.next = s.merge.Next
			ranges = len(parts)
		}
	}
	if s.out.next == nil {
		s.out.next = (&rangeProducer{cur: s.cursor(ctx, iter)}).next
	}
	raisePeak(&s.slot.MergeRanges, int64(ranges))
	return nil
}

// sealSorters sorts every worker's buffered tail (Sorter.Seal) on a step
// of its own on the query's scheduler account and waits for them all,
// booking their time to slot.
func sealSorters(ctx *Context, sorters []*extsort.Sorter, slot *OpProfile) error {
	errs := make([]error, len(sorters))
	var wg sync.WaitGroup
	wg.Add(len(sorters))
	steps := make([]sched.Task, len(sorters))
	for i, sorter := range sorters {
		steps[i] = func() {
			defer wg.Done()
			t0 := nanotime()
			errs[i] = sorter.Seal()
			slot.BusyNs.Add(nanotime() - t0)
		}
	}
	ctx.queryTasks().Submit(steps...)
	wg.Wait()
	return cmp.Or(errs...)
}

// Next runs the sort phase on the first call, then streams the merge
// phase: cursor's chunks, range by range when the merge is partitioned.
func (s *sortedStream) Next(ctx *Context) (*vector.Chunk, error) {
	if s.out.next == nil {
		sorters, err := s.fill(ctx)
		if err == nil {
			err = s.finish(ctx, sorters)
		}
		if err != nil {
			return nil, err
		}
	}
	return s.out.chunk()
}

// mergeRows reports rows emitted per merge-phase worker (test hook;
// valid after the stream has drained).
func (s *sortedStream) mergeRows() []int64 {
	if s.merge == nil {
		return nil
	}
	return s.merge.rows
}

func (s *sortedStream) Close(ctx *Context) {
	s.closeSort(ctx)
	s.src.Close(ctx)
}

// closeSort stops the merge phase, books its run-ahead and drops the
// sorted rows; the source stays open.
func (s *sortedStream) closeSort(ctx *Context) {
	s.out = batchReader{}
	if s.merge != nil {
		s.merge.Close() // join range workers before their files close
		s.slot.MergeParks.Add(s.merge.parks)
		raisePeak(&s.slot.MergeAheadBytes, s.merge.peakAhead)
		s.merge = nil
	}
	if s.iter != nil {
		recordSortKeys(ctx, s.slot, s.iter)
		s.iter.Close()
		s.iter = nil
	}
}

// sortOp is the ORDER BY pipeline breaker: a sortedStream over
// sortLayout's rows, stripped back to the payload. Its merge ranges end
// on chunk boundaries (PartitionMerge under the full keys), so the
// stream's chunks are the serial merge's at every thread count.
type sortOp struct {
	sortedStream
	np int // payload column count
}

func newSortOp(src source, n *plan.SortNode, slot *OpProfile) *sortOp {
	payload := schemaTypes(n.Child.Schema())
	extTypes, keys, extend := sortLayout(payload, n.Keys)
	return &sortOp{np: len(payload), sortedStream: sortedStream{
		src: src, slot: slot,
		extTypes: extTypes, keys: keys, rangeKeys: keys, extend: extend,
		cursor: newChunkCursor,
	}}
}

func (s *sortOp) Next(ctx *Context) (*vector.Chunk, error) {
	chunk, err := s.sortedStream.Next(ctx)
	if err != nil || chunk == nil {
		return nil, err
	}
	// Strip the appended key and tiebreak columns.
	out := &vector.Chunk{Cols: chunk.Cols[:s.np]}
	out.SetLen(chunk.Len())
	return out, nil
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
