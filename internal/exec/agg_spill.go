package exec

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/expr"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/types"
	"repro/internal/vector"
)

// Partition-wise (grace) hash aggregation. Every accumulation worker of
// an aggOp keeps its groups in one groupStore; the top bits of a group's
// key hash assign it to one of aggFanout partitions. Under an enforced
// memory budget the slots of a partition whose state no longer fits are
// written, with their stored hashes, to a state run (extsort.StateRun),
// the store is compacted and the budget returned. The finish never
// spills what is resident: if nothing spilled, the tables' partials fold
// in place into the earliest table holding the same key; else each
// partition is re-loaded into one store by hash — its runs and the
// tables' resident slots of it — across ctx.Threads workers, re-split on
// the next hash bits when it does not fit (see finishAggTables).
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
//     first-seen order: the resident path merges the tables' slots
//     by it, the spilled path routes finished rows through per-worker
//     extsort sorters keyed on it and one MergeFinish stream, so even
//     the output sort is memory-bounded.

// aggTable is one accumulation thread's group store with its budget,
// spill runs and per-chunk driver. It is not safe for concurrent use;
// the aggregate builds one per worker and merges them at finish.
type aggTable struct {
	node   *plan.AggNode
	store  *groupStore
	pool   *buffer.Pool
	tmpDir string
	acct   *QueryStats // the query's account
	prof   *OpProfile  // the aggregate node's profile slot
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
	scratch   expr.Scratch // groupVecs' and argVecs' storage, reset per chunk
	keys      keyScratch
	keyBuf    []byte // a spilled record's key and payload, reused
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

// newAggTable builds one accumulation worker's table, which books into
// the aggregate's profile slot. tables is the aggregation's worker
// count: the tables share the budget, which sizes the proactive-shed
// share (a lone table keeps half the budget).
func newAggTable(ctx *Context, n *plan.AggNode, tables int, slot *OpProfile) *aggTable {
	t := &aggTable{
		node:      n,
		pool:      ctx.Pool,
		tmpDir:    ctx.TmpDir,
		acct:      &ctx.Stats,
		prof:      slot,
		groupVecs: make([]*vector.Vector, len(n.GroupBy)),
		argVecs:   make([]*vector.Vector, len(n.Aggs)),
	}
	t.spillable = ctx.Pool != nil && ctx.Pool.Limit() > 0
	t.retain = tables > 1 || t.spillable
	t.store = newGroupStore(n, t.retain)
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
	t.scratch.Reset()
	for i, g := range t.node.GroupBy {
		v, err := t.scratch.Eval(g, chunk)
		if err != nil {
			return err
		}
		t.groupVecs[i] = v
	}
	for j, spec := range t.node.Aggs {
		if spec.Arg != nil {
			v, err := t.scratch.Eval(spec.Arg, chunk)
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
	if err := t.writeRun(best, victims); err != nil {
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

// writeRun serializes the given slots of partition p to a state run, in
// slot order (the finish re-loads a run by hash), their pending DOUBLE
// subtotals flushed into leaves first. The slots stay in the store; the
// caller drops them.
func (t *aggTable) writeRun(p int, slots []uint32) error {
	st := t.store
	for j := range st.aggs {
		if c := &st.aggs[j]; c.kind == aggSumFloat {
			for _, sl := range slots {
				c.flush(sl, st.touch[sl]-1, true)
			}
		}
	}
	leaves := st.leafIndex()
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
	for _, sl := range slots {
		t.keyBuf = st.appendKey(t.keyBuf[:0], sl)
		t.payBuf = st.appendState(t.payBuf[:0], sl, leaves)
		if err := w.Append(t.keyBuf, t.payBuf); err != nil {
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
	t.acct.AggSpillParts.Add(1)
	t.acct.AggSpillBytes.Add(run.Bytes())
	t.prof.SpillParts.Add(1)
	t.prof.SpillBytes.Add(run.Bytes())
	return nil
}

// dropStore frees the store and its reservation (its groups were
// spilled or merged into another table's store).
func (t *aggTable) dropStore() {
	t.store = newGroupStore(t.node, t.retain)
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

// aggFinish streams the finished groups of one or more aggTables in
// first-seen (firstPos) order: straight from the tables' stores when
// nothing spilled, else from a MergeFinish iterator over the firstPos-
// keyed sorters the partition re-loads fed.
type aggFinish struct {
	node     *plan.AggNode
	outTypes []types.Type

	parts []finishPart      // resident path: the tables' slots
	left  int64             // resident path: groups not yet emitted
	iter  *extsort.Iterator // spilled path

	groups, folded, reloaded int64   // folded across tables; partitions with runs
	depth                    int     // deepest re-split (0: none)
	mergeGroups              []int64 // groups each finish worker re-loaded (test hook)
}

// finishPart is one table's slots in firstPos order and the next one to
// emit.
type finishPart struct {
	store *groupStore
	order []uint32
	pos   int
}

func (p *finishPart) head() int64 { return p.store.firstPos[p.order[p.pos]] }

// finishAggTables finishes the tables (one per accumulation thread) into
// an emission stream without spilling what is resident: if nothing
// spilled, their groups fold in place (foldTables) and the tables' slots
// are emitted in firstPos order from their stores; else every partition
// is re-loaded by hash, which folds across the tables too, and emitted
// through sorters (reload). On success ownership of any output-sorter
// files moves to the returned finish; the tables stay the caller's and
// must outlive the stream.
func finishAggTables(ctx *Context, node *plan.AggNode, tables []*aggTable) (*aggFinish, error) {
	f := &aggFinish{node: node, outTypes: schemaTypes(node.Schema())}
	spilled := false
	for _, t := range tables {
		t.curTouch = 0      // no morsel in flight anymore
		t.spillable = false // and nothing spills from here on
		t.store.flushPending()
		spilled = spilled || t.spills > 0
	}
	if spilled {
		return f, f.reload(ctx, tables)
	}
	f.foldTables(tables)
	// Settle the reservations with the stores: the fold moved state
	// between the tables, so only the net change reaches the pool. What
	// the finish adds — the leaves of the subtotals pending at the end of
	// the input, gone again once folded — is reserved best-effort, like a
	// run cursor's block: this is the path that hands the budget back.
	var net int64
	for _, t := range tables {
		t.store.foldLeaves()
		net += t.store.bytes() - t.reserved
	}
	if t0 := tables[0]; net <= 0 || t0.tryReserve(net) {
		t0.release(max(-net, 0))
		for _, t := range tables {
			t.reserved = t.store.bytes()
		}
	}
	if st := tables[0].store; len(node.GroupBy) == 0 && !slices.ContainsFunc(tables, func(t *aggTable) bool { return t.store.n > 0 }) {
		// A global aggregation over zero rows yields one row: count = 0,
		// other aggregates NULL — an untouched slot.
		st.rebuild(nil, 1, 0)
		st.newSlot(0, 0)
	}
	for _, t := range tables {
		// Slots are in arrival order: firstPos order unless a fold lowered a
		// firstPos or a morsel arrived in several chunks.
		st := t.store
		order := make([]uint32, st.n)
		for sl := range order {
			order[sl] = uint32(sl)
		}
		if !slices.IsSorted(st.firstPos[:st.n]) {
			slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(st.firstPos[a], st.firstPos[b]) })
		}
		f.parts = append(f.parts, finishPart{store: st, order: order})
		f.groups += int64(st.n)
	}
	f.left = f.groups
	return f, nil
}

// foldTables folds every table's groups in place into the earliest table
// holding the same key: a slot re-probes the earlier tables in order
// with its stored hash, lookup only, and the first hit takes its state;
// the table is then compacted to the slots that missed. No slot is
// inserted, so the fold fits any budget that held the tables.
func (f *aggFinish) foldTables(tables []*aggTable) {
	for t := 1; t < len(tables); t++ {
		src := tables[t].store
		idx := src.leafIndex()
		for _, dst := range tables[:t] { // room, once, for every leaf the fold may move
			for j := range src.aggs {
				c, n := &dst.store.aggs[j], len(src.aggs[j].leafSlot)
				c.leafSlot, c.leafSeq, c.leafSum = slices.Grow(c.leafSlot, n), slices.Grow(c.leafSeq, n), slices.Grow(c.leafSum, n)
			}
		}
		keep, arena := make([]uint32, 0, src.n), 0
	slots:
		for ss := range uint32(src.n) {
			h, k := src.hashes[ss], src.keyOf(ss)
			for _, dst := range tables[:t] {
				if sl, ok := dst.store.probe(h, k, false); ok {
					dst.store.foldSlot(sl, src, ss, idx)
					f.folded++
					continue slots
				}
			}
			keep, arena = append(keep, ss), arena+len(k.bytes)
		}
		if len(keep) < src.n {
			src.rebuild(keep, len(keep), arena)
		}
	}
}

// reload finishes a spilled aggregation. Worker w re-loads partitions w,
// w+W, ... one per scheduler step and appends the finished rows, firstPos
// last, to its own firstPos-keyed sorter; MergeFinish then streams the
// order the resident path emits, since firstPos is unique per group.
func (f *aggFinish) reload(ctx *Context, tables []*aggTable) error {
	leaves := make([][][]uint32, len(tables))
	for i, t := range tables {
		leaves[i] = t.store.leafIndex()
	}
	for p := range aggFanout {
		if slices.ContainsFunc(tables, func(t *aggTable) bool { return len(t.runs[p]) > 0 }) {
			f.reloaded++
		}
	}
	outTypes := append(slices.Clip(f.outTypes), types.BigInt)
	workers := min(max(ctx.Threads, 1), aggFanout)
	budget := splitBudget(ctx.sortBudget(), workers)
	loaders := make([]*partLoader, workers)
	sorters := make([]*extsort.Sorter, workers)
	for w := range loaders {
		sorters[w] = extsort.NewSorter(outTypes, []extsort.Key{{Col: len(outTypes) - 1}}, budget, ctx.TmpDir)
		if ctx.Pool != nil {
			sorters[w].SetPool(ctx.Pool)
		}
		// A loader's store is the finish's, not accumulation state: it
		// reserves from a pool of its own and books into a slot of its
		// own, which nothing reads.
		loaders[w] = &partLoader{tables: tables, leaves: leaves, sorter: sorters[w], outTypes: outTypes,
			out: vector.NewChunk(outTypes), aggTable: aggTable{node: f.node, pool: buffer.NewPool(budget, nil), prof: new(OpProfile)}}
	}
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	errs := make([]error, workers) // worker w's, written by its steps only
	q := ctx.queryTasks()
	steps := make([]sched.Task, workers)
	for w := range workers {
		p := w
		var task func()
		task = func() {
			first := uint64(p) << (64 - aggPartBits) // partition p's hashes: first..first|(1<<60-1)
			if p < aggFanout && !stop.Load() {
				if errs[w] = loaders[w].load(p, first, first|(1<<(64-aggPartBits)-1), 0); errs[w] == nil {
					p += workers
					q.Submit(task)
					return
				}
				stop.Store(true)
			}
			if errs[w] == nil {
				errs[w] = loaders[w].flush() // the worker's last rows
			}
			if errs[w] == nil {
				errs[w] = sorters[w].Seal() // sort its tail here, not on the caller
			}
			wg.Done()
		}
		steps[w] = task
	}
	wg.Add(workers)
	q.Submit(steps...)
	wg.Wait()
	err := cmp.Or(errs...)
	if err == nil {
		// Every group is in the sorters: the resident state and its budget
		// go before the output merge starts.
		for _, t := range tables {
			t.dropStore()
		}
		f.iter, err = extsort.MergeFinish(sorters)
	}
	if err != nil {
		for _, s := range sorters {
			s.Close()
		}
		return err
	}
	for _, l := range loaders {
		f.mergeGroups = append(f.mergeGroups, l.groups)
		f.groups += l.groups
		f.depth = max(f.depth, l.depth)
	}
	return nil
}

// partLoader re-loads partitions on one finish worker: a partition's
// groups — the tables' slots in it and its run records — fold by stored
// hash into its aggTable's store, held by a private pool to the worker's
// share of the sort budget. A store of more than one group that outgrows
// it is dropped and its hash range re-split in halves, each read anew.
type partLoader struct {
	aggTable
	tables   []*aggTable
	leaves   [][][]uint32 // per table: its leafIndex
	sorter   *extsort.Sorter
	outTypes []types.Type
	sel      []uint32
	out      *vector.Chunk // finished rows not yet handed to the sorter
	groups   int64
	depth    int
}

// load finishes the groups of partition p whose hashes lie in [from, to],
// which depth halvings of the partition's hash range produced. A range
// that does not fit is halved; one hash value that does not fit fails.
func (l *partLoader) load(p int, from, to uint64, depth int) error {
	l.depth = max(l.depth, depth)
	l.store = newGroupStore(l.node, true)
	err := l.fill(p, from, to)
	if err == nil {
		err = l.emit()
	}
	l.release(l.reserved)
	if !errors.Is(err, buffer.ErrOutOfMemory) {
		return err
	}
	if from == to {
		return fmt.Errorf("aggregation: groups sharing one 64-bit hash outgrow the memory budget: %w", err)
	}
	mid := from + (to-from)/2
	if err := l.load(p, from, mid, depth+1); err != nil {
		return err
	}
	return l.load(p, mid+1, to, depth+1)
}

// fill folds every table's slots and run records of partition p whose
// hashes lie in [from, to] into the store.
func (l *partLoader) fill(p int, from, to uint64) error {
	for i, t := range l.tables {
		src := t.store
		for ss := range uint32(src.n) {
			if h := src.hashes[ss]; from <= h && h <= to {
				sl, err := l.slot(h, src.keyOf(ss))
				if err == nil {
					l.store.foldSlot(sl, src, ss, l.leaves[i])
					err = l.settle()
				}
				if err != nil {
					return err
				}
			}
		}
		for _, run := range t.runs[p] {
			if err := l.fillRun(run, p, from, to); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillRun is fill for one run's records. A record whose hash is not in
// the run's partition is a corrupt run.
func (l *partLoader) fillRun(run *extsort.StateRun, p int, from, to uint64) error {
	cur := run.Cursor()
	defer cur.Close()
	for {
		ok, err := cur.Next()
		if err != nil || !ok {
			return err
		}
		state := cur.State()
		k, valid := l.store.parseKey(cur.Key())
		if !valid || len(state) < 8 || aggPartOfHash(binary.LittleEndian.Uint64(state)) != p {
			return fmt.Errorf("agg spill: corrupt state run record in partition %d", p)
		}
		if h := binary.LittleEndian.Uint64(state); from <= h && h <= to {
			sl, err := l.slot(h, k)
			if err == nil {
				err = l.store.foldState(sl, state)
			}
			if err == nil {
				err = l.settle()
			}
			if err != nil {
				return err
			}
		}
	}
}

// settle is aggTable.settle, except that one group, which no re-split
// divides, never outgrows the budget: what it cannot hold goes unreserved.
func (l *partLoader) settle() error {
	if err := l.aggTable.settle(); err != nil && l.store.n > 1 {
		return err
	}
	return nil
}

// slot finds k's slot in the store or opens one, growing the store
// within the budget.
func (l *partLoader) slot(h uint64, k groupKey) (uint32, error) {
	if sl, ok := l.store.probe(h, k, false); ok {
		return sl, nil
	}
	if err := l.makeRoom(1, len(k.bytes)); err != nil {
		return 0, err
	}
	sl, _ := l.store.probe(h, k, true)
	return sl, nil
}

// emit appends the store's finished groups, firstPos in the hidden last
// column, to the worker's pending chunk, handing each full one to the
// sorter: under a small budget each chunk it takes is a run of its own.
func (l *partLoader) emit() error {
	st := l.store
	st.foldLeaves()
	for from := 0; from < st.n; {
		at := l.out.Len()
		n := min(st.n-from, vector.ChunkCapacity-at)
		l.sel = l.sel[:0]
		for sl := range uint32(n) {
			l.sel = append(l.sel, uint32(from)+sl)
		}
		l.out.SetLen(at + n)
		if err := st.emit(l.out, at, l.sel); err != nil {
			return err
		}
		copy(l.out.Cols[len(l.outTypes)-1].I64[at:], st.firstPos[from:from+n])
		if from += n; l.out.Len() == vector.ChunkCapacity {
			if err := l.flush(); err != nil {
				return err
			}
		}
	}
	l.groups += int64(st.n)
	return nil
}

// flush hands the pending rows to the sorter.
func (l *partLoader) flush() error {
	if l.out.Len() == 0 {
		return nil
	}
	out := l.out
	l.out = vector.NewChunk(l.outTypes)
	return l.sorter.Add(out)
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
	n := int(min(f.left, vector.ChunkCapacity))
	if n == 0 {
		return nil, nil
	}
	f.left -= int64(n)
	out := vector.NewChunk(f.outTypes)
	out.SetLen(n)
	// Merge the parts by firstPos: emit the part whose next slot comes
	// first for as long as its slots precede every other part's next.
	for at := 0; at < n; {
		var p *finishPart
		bound := int64(math.MaxInt64)
		for i := range f.parts {
			if q := &f.parts[i]; q.pos < len(q.order) {
				if p == nil || q.head() < p.head() {
					p, q = q, p
				}
				if q != nil {
					bound = min(bound, q.head())
				}
			}
		}
		end := p.pos + 1
		for end < len(p.order) && end-p.pos < n-at && (bound == math.MaxInt64 || p.store.firstPos[p.order[end]] < bound) {
			end++
		}
		if err := p.store.emit(out, at, p.order[p.pos:end]); err != nil {
			return nil, err
		}
		at += end - p.pos
		p.pos = end
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
	f.parts = nil
}
