package exec

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/buffer"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// Partition-wise (grace) hash aggregation. Every accumulation worker of
// an aggOp keeps its groups in one groupStore; the top bits of a group's
// key hash assign it to one of aggFanout partitions. Under an enforced
// memory budget the slots of a partition whose state no longer fits are
// written to a sorted-key state run (extsort.StateRun), the store is
// compacted and the budget returned; the finish phase spills each
// table's resident remainder and merges every partition's runs
// partition-by-partition across ctx.Threads workers.
//
// Determinism at every thread count and every budget:
//   - counts, integer sums, min/max and DISTINCT value sets merge
//     order-insensitively (set union; min/max are idempotent folds);
//   - DOUBLE sums retain one subtotal per (group, morsel) — a morsel is
//     processed by exactly one worker and a spill never splits the
//     in-flight morsel's subtotal (slots touched by the current morsel
//     are not spillable), so the merged leaves of a group have unique
//     morsel seqs and foldLeaves replays the morsel-order reduction tree
//     exactly;
//   - emission orders groups by firstPos, the packed (morsel, row)
//     position of first appearance, which is the input stream's
//     first-seen order; the spilled path routes finished rows through
//     per-worker extsort sorters keyed on firstPos and one MergeFinish
//     stream, so even the output sort is memory-bounded.

// aggTable is one accumulation thread's group store with its budget,
// spill runs and per-chunk driver. It is not safe for concurrent use;
// the aggregate builds one per worker and merges them at finish.
type aggTable struct {
	node   *plan.AggNode
	store  *groupStore
	pool   *buffer.Pool
	tmpDir string
	stats  *Stats
	prof   *OpProfile  // aggregate node's profile slot (nil off)
	qstats *QueryStats // per-query roll-up for the slow log (nil off)
	// spillable marks an enforced budget: reservation failures spill a
	// partition instead of failing the query.
	spillable bool
	// softCap is this table's share of the budget (limit / 2·tables).
	// Crossing it sheds partitions proactively at the next chunk
	// boundary, so one thread's resident states cannot crowd out its
	// siblings' unspillable in-flight morsels from the shared pool.
	softCap int64
	// retain keeps per-morsel DOUBLE subtotals for the ordered merge:
	// needed whenever partials of one group can meet — several tables, or
	// a table that may spill (a spilled partial must carry its exact
	// reduction-tree leaves). A lone unbudgeted table sees the morsels in
	// order and folds each subtotal as it completes, which is the same
	// reduction tree without the per-(group, morsel) memory.
	retain bool

	runs     [aggFanout][]*extsort.StateRun
	curTouch int64 // seq+1 of the morsel being accumulated
	// spillFile backs every run this table spills (one fd per thread,
	// however many spill rounds happen); created on first spill.
	spillFile *extsort.StateSpillFile
	groupVecs []*vector.Vector
	argVecs   []*vector.Vector
	keys      keyScratch
	payBuf    []byte
	// inflight is the resolved prefix of the chunk being probed while the
	// store makes room mid-chunk; a compaction renumbers it in place.
	inflight []uint32
	// reserved is what the pool holds for this table: the store's
	// footprint (groupStore.bytes), settled whenever the store grows or
	// is compacted.
	reserved int64
	rows     int64 // rows accumulated (worker-split test hook)
	spills   int64
}

// newAggTable builds one accumulation worker's table. tables is the
// aggregation's worker count: the tables share the budget, which sizes
// the proactive-shed share (a lone table keeps half the budget).
func newAggTable(ctx *Context, n *plan.AggNode, tables int) *aggTable {
	t := &aggTable{
		node:      n,
		pool:      ctx.Pool,
		tmpDir:    ctx.TmpDir,
		stats:     ctx.Stats,
		prof:      ctx.Prof.Slot(n),
		qstats:    ctx.QStats,
		groupVecs: make([]*vector.Vector, len(n.GroupBy)),
		argVecs:   make([]*vector.Vector, len(n.Aggs)),
	}
	t.spillable = ctx.Pool != nil && ctx.Pool.Limit() > 0
	t.retain = tables > 1 || t.spillable
	t.store = newGroupStore(n, t.retain, false)
	if t.spillable {
		t.softCap = max(ctx.Pool.Limit()/int64(2*max(tables, 1)), 1)
	}
	return t
}

// accumulate folds one chunk into the table. seq is the chunk's own
// sequence number in the source's stream (sinkFunc): a group's first
// position is (seq, row) and each seq is one DOUBLE subtotal, so no two
// chunks may share one.
//
// The budget is touched at three points: shedding before the keys are
// resolved, growth when the probe meets a new group the store has no
// room for (growAt — the only point a spill can renumber slots the
// chunk already resolved), and leaf and DISTINCT growth settled after
// the kernels.
//
//quack:hotpath
func (t *aggTable) accumulate(ctx *Context, seq int, chunk *vector.Chunk) error {
	n := chunk.Len()
	t.curTouch = int64(seq) + 1
	if t.spillable && t.reserved > t.softCap {
		if err := t.shed(); err != nil {
			return err
		}
	}
	for i, g := range t.node.GroupBy {
		v, err := g.Eval(chunk)
		if err != nil {
			return err
		}
		t.groupVecs[i] = v
	}
	for j, spec := range t.node.Aggs {
		if spec.Arg != nil {
			v, err := spec.Arg.Eval(chunk)
			if err != nil {
				return err
			}
			t.argVecs[j] = v
		}
	}
	st := t.store
	st.prepare(&t.keys, t.groupVecs, n)
	for r := 0; ; {
		if r = st.resolve(&t.keys, t.groupVecs, n, seq, r, true); r == n {
			break
		}
		if err := t.growAt(r); err != nil {
			return err
		}
	}
	slots := t.keys.slots[:n]
	if st.floatSums || t.spillable {
		st.beginMorselRows(slots, t.curTouch)
	}
	for j := range st.aggs {
		st.aggs[j].update(slots, t.argVecs[j])
	}
	t.rows += int64(n)
	return t.settle()
}

// growAt makes room for the new group that stopped the probe at row r.
// The rows already resolved are stamped as the in-flight morsel's first,
// so a spill leaves their slots alone, and registered as inflight, so
// the compaction after it renumbers them.
func (t *aggTable) growAt(r int) error {
	st := t.store
	t.inflight = t.keys.slots[:r]
	if st.floatSums || t.spillable {
		st.beginMorselRows(t.inflight, t.curTouch)
	}
	err := t.makeRoom(1, len(st.keyBuf))
	t.inflight = nil
	return err
}

// makeRoom grows the store until n more slots with keyBytes of arena
// keys fit, reserving the growth first: doubled, then by an eighth;
// when the budget refuses both it spills a partition and starts over,
// and only with nothing left to spill settles for the bare need.
func (t *aggTable) makeRoom(n, keyBytes int) error {
	st := t.store
	grow := func(g growth) (bool, error) {
		slotCap, arenaCap, err := st.room(n, keyBytes, g)
		if err != nil {
			return false, err
		}
		if slotCap != st.cap || arenaCap != cap(st.arena) {
			if !t.tryReserve(st.bytesAt(slotCap, arenaCap) - t.reserved) {
				return false, nil
			}
			st.rebuild(nil, slotCap, arenaCap)
		}
		return true, nil
	}
	for {
		for _, g := range [...]growth{growDouble, growEighth} {
			if ok, err := grow(g); ok || err != nil {
				return err
			}
		}
		if t.spillable {
			spilled, err := t.spillOne()
			if err != nil {
				return err
			}
			if spilled {
				continue
			}
		}
		if ok, err := grow(growExact); ok || err != nil {
			return err
		}
		return t.budgetError()
	}
}

// settle squares the reservation with the store's footprint: growth the
// kernels caused (DOUBLE leaves, DISTINCT sets) is reserved, spilling if
// it must; a store that shrank gives budget back. Without it a handful
// of long-lived groups could grow far past the budget without ever
// opening a slot.
func (t *aggTable) settle() error {
	for {
		delta := t.store.bytes() - t.reserved
		if delta == 0 {
			return nil
		}
		if delta < 0 {
			t.release(-delta)
			return nil
		}
		if t.tryReserve(delta) {
			return nil
		}
		if t.spillable {
			if spilled, err := t.spillOne(); err != nil {
				return err
			} else if spilled {
				continue
			}
		}
		return t.budgetError()
	}
}

func (t *aggTable) tryReserve(n int64) bool {
	if n <= 0 {
		return true
	}
	if t.pool != nil && t.pool.Reserve(n) != nil {
		return false
	}
	t.reserved += n
	t.prof.noteAggBytes(n)
	return true
}

func (t *aggTable) release(n int64) {
	if t.pool != nil {
		t.pool.Release(n)
	}
	t.reserved -= n
	t.prof.noteAggBytes(-n)
}

// budgetError reports a reservation nothing could make room for. Slots
// touched by the in-flight morsel are never spilled — a spill must not
// split a (group, morsel) DOUBLE subtotal — so under an enforced budget
// it means a single morsel's working set alone exceeds it.
func (t *aggTable) budgetError() error {
	if !t.spillable {
		return fmt.Errorf("aggregation exceeded memory budget: %w", buffer.ErrOutOfMemory)
	}
	return fmt.Errorf("aggregation exceeded memory budget (one morsel's distinct groups alone overflow it): %w", buffer.ErrOutOfMemory)
}

// shed spills partitions until the table is back under its budget
// share. Unlike a refused reservation it tolerates running out of
// spillable partitions — the in-flight morsel's states legitimately
// stay resident.
func (t *aggTable) shed() error {
	for t.reserved > t.softCap {
		spilled, err := t.spillOne()
		if err != nil || !spilled {
			return err
		}
	}
	return nil
}

// spillOne spills the partition with the most spillable slots and
// compacts the store, reporting false when nothing is spillable.
func (t *aggTable) spillOne() (bool, error) {
	st := t.store
	var counts [aggFanout]int
	for sl := 0; sl < st.n; sl++ {
		if st.touch[sl] != t.curTouch {
			counts[aggPartOfHash(st.hashes[sl])]++
		}
	}
	best := 0
	for p, c := range counts {
		if c > counts[best] {
			best = p
		}
	}
	if counts[best] == 0 {
		return false, nil
	}
	victims := make([]uint32, 0, counts[best])
	keep := make([]uint32, 0, st.n-counts[best])
	for sl := 0; sl < st.n; sl++ {
		if st.touch[sl] != t.curTouch && aggPartOfHash(st.hashes[sl]) == best {
			victims = append(victims, uint32(sl))
		} else {
			keep = append(keep, uint32(sl))
		}
	}
	if err := t.writeRun(best, victims, t.leafIndex(victims)); err != nil {
		return true, err
	}
	// Compact to the survivors plus an eighth, never past the old
	// capacities: the store only shrinks here, so the budget the
	// partition held is really returned.
	arena := 0
	if !st.fixed {
		arena = len(st.arena)
		for _, sl := range victims {
			arena -= int(st.keyOff[sl+1] - st.keyOff[sl])
		}
		arena = min(arena+arena/8, cap(st.arena))
	}
	remap := st.rebuild(keep, min(len(keep)+len(keep)/8+16, st.cap), arena)
	for i, sl := range t.inflight {
		t.inflight[i] = remap[sl]
	}
	return true, t.settle()
}

// leafIndex flushes the pending DOUBLE subtotal of every slot about to
// be spilled into its leaves and groups each aggregate's leaves by slot
// for writeRun.
func (t *aggTable) leafIndex(slots []uint32) [][]uint32 {
	st := t.store
	idx := make([][]uint32, len(st.aggs))
	for j := range st.aggs {
		c := &st.aggs[j]
		if c.kind != aggSumFloat {
			continue
		}
		for _, sl := range slots {
			c.flush(sl, st.touch[sl]-1, true)
		}
		idx[j] = c.groupLeaves(st.n)
	}
	return idx
}

// writeRun serializes the given slots of partition p to a sorted-key
// state run. The slots stay in the store; the caller drops them.
func (t *aggTable) writeRun(p int, slots []uint32, leaves [][]uint32) error {
	st := t.store
	keys := st.sortSlotsByKey(slots)
	if t.spillFile == nil {
		sf, err := extsort.NewStateSpillFile(t.tmpDir)
		if err != nil {
			return err
		}
		sf.SetPool(t.pool)
		t.spillFile = sf
	}
	w, err := t.spillFile.NewRun()
	if err != nil {
		return err
	}
	for i, sl := range slots {
		t.payBuf = st.appendState(t.payBuf[:0], sl, leaves)
		if err := w.Append(keys[i], t.payBuf); err != nil {
			w.Abort()
			return err
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	t.runs[p] = append(t.runs[p], run)
	t.spills++
	if t.stats != nil {
		t.stats.AggSpillPartitions.Add(1)
		t.stats.AggSpilledBytes.Add(run.Bytes())
	}
	if t.prof != nil {
		t.prof.SpillParts.Add(1)
		t.prof.SpillBytes.Add(run.Bytes())
	}
	if t.qstats != nil {
		t.qstats.SpillBytes.Add(run.Bytes())
	}
	return nil
}

// spillAll spills every partition's remaining resident slots and drops
// the store. The finish phase calls it (nothing is in flight anymore) so
// the merge streams from runs with O(block) memory and the output
// sorters inherit the whole budget.
func (t *aggTable) spillAll() error {
	t.curTouch = 0 // no morsel in flight; every slot is spillable
	st := t.store
	var parts [aggFanout][]uint32
	all := make([]uint32, st.n)
	for sl := range all {
		all[sl] = uint32(sl)
		p := aggPartOfHash(st.hashes[sl])
		parts[p] = append(parts[p], uint32(sl))
	}
	leaves := t.leafIndex(all)
	for p, slots := range parts {
		if len(slots) == 0 {
			continue
		}
		if err := t.writeRun(p, slots, leaves); err != nil {
			return err
		}
	}
	t.dropStore()
	return nil
}

// dropStore frees the store and its reservation (its groups were
// spilled or merged into another table's store).
func (t *aggTable) dropStore() {
	t.store = newGroupStore(t.node, t.retain, false)
	if t.reserved > 0 {
		t.release(t.reserved)
	}
}

// close releases the table's budget and spill file. Idempotent.
func (t *aggTable) close() {
	t.runs = [aggFanout][]*extsort.StateRun{}
	if t.spillFile != nil {
		t.spillFile.Close()
		t.spillFile = nil
	}
	t.dropStore()
}

// ---- finish phase ----

// aggFinish streams the merged groups of one or more aggTables in
// first-seen (firstPos) order. Without spills it emits straight from the
// one store the partials were merged into; with spills it streams a
// MergeFinish iterator over per-worker firstPos-keyed sorters fed by
// the partition merges.
type aggFinish struct {
	node     *plan.AggNode
	outTypes []types.Type

	// In-memory path: the final store and the slots in emission order
	// (nil: slot order, which for a lone table is arrival order).
	store *groupStore
	order []uint32
	pos   int
	sel   []uint32

	iter *extsort.Iterator // spilled path

	groups      int64
	mergeGroups []int64 // groups merged per finish worker (test hook)
}

// finishAggTables merges the tables (one per accumulation thread) into
// an emission stream. On success ownership of any output-sorter files
// moves to the returned finish; the tables themselves (reservations,
// state runs, the final store) stay owned by the caller and must outlive
// the stream.
func finishAggTables(ctx *Context, node *plan.AggNode, tables []*aggTable) (*aggFinish, error) {
	f := &aggFinish{node: node, outTypes: schemaTypes(node.Schema())}

	// Finish pending per-morsel DOUBLE subtotals before any merge.
	spilled := false
	for _, t := range tables {
		t.curTouch = 0 // no morsel in flight anymore
		t.store.flushPending()
		spilled = spilled || t.spills > 0
	}
	if !spilled {
		merged, err := mergeResidentStores(tables)
		if err != nil {
			return nil, err
		}
		spilled = !merged
	}
	if !spilled {
		st := tables[0].store
		st.foldLeaves()
		if err := tables[0].settle(); err != nil { // the leaves are gone: only ever a release
			return nil, err
		}
		if len(node.GroupBy) == 0 && st.n == 0 {
			// A global aggregation over zero rows yields one row: count =
			// 0, other aggregates NULL — an untouched slot.
			st.rebuild(nil, 1, 0)
			st.newSlot(0, 0)
		}
		f.store = st
		f.groups = int64(st.n)
		// Slots are in arrival order; that is firstPos order unless
		// partials were merged or a morsel arrived in several chunks.
		if !slices.IsSorted(st.firstPos[:st.n]) {
			f.order = make([]uint32, st.n)
			for i := range f.order {
				f.order[i] = uint32(i)
			}
			slices.SortFunc(f.order, func(a, b uint32) int {
				return cmp.Or(cmp.Compare(st.firstPos[a], st.firstPos[b]), cmp.Compare(a, b))
			})
		}
		return f, nil
	}

	// Spill the remaining resident partials too: the merge then streams
	// every partition from sorted runs with O(block) memory, and the
	// budget the resident states held moves to the output sorters (which
	// spill in turn if even the finished groups exceed it).
	for _, t := range tables {
		if err := t.spillAll(); err != nil {
			return nil, err
		}
	}

	// Partition-wise merge across ctx.Threads workers: worker w merges
	// partitions w, w+W, ... and appends finished rows (group values,
	// aggregate results, firstPos) to its own firstPos-keyed sorter.
	// MergeFinish then streams one globally ordered result — the same
	// first-seen order the in-memory path emits, whatever the partition
	// assignment, because firstPos is unique per group.
	ng, na := len(node.GroupBy), len(node.Aggs)
	outTypes := append(slices.Clip(f.outTypes), types.BigInt)
	sortKeys := []extsort.Key{{Col: ng + na}}
	workers := min(max(ctx.Threads, 1), aggFanout)
	budget := splitBudget(ctx.sortBudget(), workers)
	sorters := make([]*extsort.Sorter, workers)
	for w := range sorters {
		sorters[w] = extsort.NewSorter(outTypes, sortKeys, budget, ctx.TmpDir)
		if ctx.Pool != nil {
			sorters[w].SetPool(ctx.Pool)
		}
	}
	// Worker w's task merges partitions w, w+W, ... one partition per
	// scheduler step (re-submitting between partitions), so long merges
	// share the pool fairly with other queries.
	f.mergeGroups = make([]int64, workers)
	var (
		mu       sync.Mutex
		firstErr error
	)
	remaining := workers
	done := make(chan struct{})
	q := ctx.queryTasks()
	for w := 0; w < workers; w++ {
		w := w
		p := w
		var task func()
		task = func() {
			mu.Lock()
			stop := firstErr != nil
			mu.Unlock()
			if stop || p >= aggFanout {
				mu.Lock()
				remaining--
				if remaining == 0 {
					close(done)
				}
				mu.Unlock()
				return
			}
			if err := mergeAggPartition(p, node, tables, outTypes, sorters[w], &f.mergeGroups[w]); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				remaining--
				if remaining == 0 {
					close(done)
				}
				mu.Unlock()
				return
			}
			p += workers
			q.Submit(task)
		}
		q.Submit(task)
	}
	<-done
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		for _, s := range sorters {
			s.Close()
		}
		return nil, err
	}
	iter, err := extsort.MergeFinish(sorters)
	if err != nil {
		for _, s := range sorters {
			s.Close()
		}
		return nil, err
	}
	f.iter = iter
	for _, n := range f.mergeGroups {
		f.groups += n
	}
	return f, nil
}

// mergeResidentStores folds every table's store into the first table's
// (spill-free finish): source slots are walked in order and re-probed
// with their stored hash. The first table reserves a source's whole
// footprint before absorbing it and the source's own reservation is
// released right after, so the merge never holds more than one source
// twice. It reports false, with the tables intact, when the budget
// refuses that — the caller then takes the spilled path.
func mergeResidentStores(tables []*aggTable) (bool, error) {
	dst := tables[0]
	for _, t := range tables[1:] {
		src := t.store
		if src.n == 0 {
			continue
		}
		slotCap, arenaCap, err := dst.store.room(src.n, len(src.arena), growExact)
		if err != nil {
			return false, err
		}
		grow := dst.store.bytesAt(slotCap, arenaCap) - dst.store.bytes()
		for j := range src.aggs {
			grow += src.aggs[j].extraBytes()
		}
		if !dst.tryReserve(grow) {
			return false, nil
		}
		if slotCap != dst.store.cap || arenaCap != cap(dst.store.arena) {
			dst.store.rebuild(nil, slotCap, arenaCap)
		}
		dst.store.absorb(src)
		t.dropStore()
		if err := dst.settle(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// runStateSource streams one spilled run's partial states in key order.
// (Resident states never reach the partition merge: the spilled finish
// path spills every table's remainder first, so runs are the only
// sources.)
type runStateSource struct {
	cur  *extsort.StateCursor
	done bool
}

func (s *runStateSource) advance() error {
	ok, err := s.cur.Next()
	if err != nil {
		return err
	}
	s.done = !ok
	return nil
}

func (s *runStateSource) curKey() ([]byte, bool) {
	if s.done {
		return nil, false
	}
	return s.cur.Key(), true
}

// mergeDistinctCap bounds the DISTINCT sets a partition merge holds
// before it finishes the batch early: the merge is the memory-reclaiming
// path and runs unaccounted.
const mergeDistinctCap = 1 << 20

// mergeAggPartition k-way merges one partition's spilled runs across
// all tables in group-key order. Equal keys are adjacent in that order,
// so each group's partials decode straight into one slot of a small
// merge store — the same columns, fold and emission as the resident
// path — which is finished a chunk at a time into the worker's output
// sorter.
func mergeAggPartition(p int, node *plan.AggNode, tables []*aggTable, outTypes []types.Type, sorter *extsort.Sorter, groupsMerged *int64) error {
	posCol := len(outTypes) - 1
	var srcs []*runStateSource
	defer func() {
		// Release every cursor's read-back block reservation; drained
		// cursors already did, so this only matters on error exits.
		for _, s := range srcs {
			s.cur.Close()
		}
	}()
	for _, t := range tables {
		for _, run := range t.runs[p] {
			rs := &runStateSource{cur: run.Cursor()}
			srcs = append(srcs, rs)
			if err := rs.advance(); err != nil {
				return err
			}
		}
	}

	st := newGroupStore(node, true, true)
	st.rebuild(nil, vector.ChunkCapacity, 0)
	sel := make([]uint32, 0, vector.ChunkCapacity)
	flush := func() error {
		if st.n == 0 {
			return nil
		}
		st.foldLeaves()
		sel = sel[:0]
		for sl := 0; sl < st.n; sl++ {
			sel = append(sel, uint32(sl))
		}
		out := vector.NewChunk(outTypes)
		if err := st.emit(out, sel); err != nil {
			return err
		}
		copy(out.Cols[posCol].I64, st.firstPos[:st.n])
		*groupsMerged += int64(st.n)
		st.reset()
		return sorter.Add(out)
	}
	var minKey []byte
	for {
		// Find the smallest current key, then fold every source holding
		// it. Fold order between sources is irrelevant: counts, integer
		// sums, min/max and set unions commute, and DOUBLE leaves are
		// ordered by morsel seq before they are summed.
		minKey = minKey[:0]
		found := false
		for _, s := range srcs {
			k, ok := s.curKey()
			if !ok {
				continue
			}
			if !found || bytes.Compare(k, minKey) < 0 {
				minKey = append(minKey[:0], k...)
				found = true
			}
		}
		if !found {
			break
		}
		slot := st.appendGroup(minKey)
		for _, s := range srcs {
			k, ok := s.curKey()
			if !ok || !bytes.Equal(k, minKey) {
				continue
			}
			if err := st.foldState(slot, s.cur.State()); err != nil {
				return err
			}
			if err := s.advance(); err != nil {
				return err
			}
		}
		distinct := int64(0)
		for j := range st.aggs {
			distinct += st.aggs[j].distBytes
		}
		if st.n == vector.ChunkCapacity || distinct > mergeDistinctCap {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// next emits the next chunk of finished groups in firstPos order.
func (f *aggFinish) next() (*vector.Chunk, error) {
	if f.iter != nil {
		c, err := f.iter.Next()
		if err != nil || c == nil {
			return nil, err
		}
		// Strip the hidden firstPos sort column.
		out := &vector.Chunk{Cols: c.Cols[:len(f.outTypes)]}
		out.SetLen(c.Len())
		return out, nil
	}
	n := min(f.store.n-f.pos, vector.ChunkCapacity)
	if n <= 0 {
		return nil, nil
	}
	var sel []uint32
	if f.order != nil {
		sel = f.order[f.pos : f.pos+n]
	} else {
		sel = f.sel[:0]
		for i := 0; i < n; i++ {
			sel = append(sel, uint32(f.pos+i))
		}
		f.sel = sel
	}
	f.pos += n
	out := vector.NewChunk(f.outTypes)
	if err := f.store.emit(out, sel); err != nil {
		return nil, err
	}
	return out, nil
}

// close releases the output-sorter files and reservations. Idempotent;
// the input tables are closed by their owning operator.
func (f *aggFinish) close() {
	if f.iter != nil {
		f.iter.Close()
		f.iter = nil
	}
	f.store = nil
}
