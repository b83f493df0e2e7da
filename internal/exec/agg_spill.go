package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/buffer"
	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// Partition-wise (grace) hash aggregation. Every accumulation worker of
// an aggOp hash-partitions its groups into a fixed fan-out of sub-tables on the group-key hash.
// Under an enforced memory budget a partition whose states no longer fit
// is spilled to a sorted-key state run (extsort.StateRun) and its budget
// returned; the finish phase spills each table's resident remainder and
// merges every partition's runs partition-by-partition across
// ctx.Threads workers. This replaces the old degraded mode that pinned
// budgeted parallel aggregation to one worker.
//
// Determinism at every thread count and every budget:
//   - counts, integer sums, min/max and DISTINCT value sets merge
//     order-insensitively (set union; min/max are idempotent folds);
//   - DOUBLE sums retain one subtotal per (group, morsel) — a morsel is
//     processed by exactly one worker and a spill never splits the
//     in-flight morsel's subtotal (states touched by the current morsel
//     are not spillable), so the merged subtotal list has unique morsel
//     seqs and foldSubF replays the morsel-order reduction tree exactly;
//   - emission orders groups by firstPos, the packed (morsel, row)
//     position of first appearance — unique per group — which is the
//     input stream's first-seen order; the spilled path routes finished rows
//     through per-worker extsort sorters keyed on firstPos and one
//     MergeFinish stream, so even the output sort is memory-bounded.

// aggFanout is the radix fan-out of the partitioned tables. 16 keeps the
// per-table overhead trivial while letting the finish phase parallelize
// and a spill reclaim ~1/16 of the budget at a time.
const aggFanout = 16

// aggPartOf maps an encoded group key to its partition (FNV-1a). It
// depends only on the key bytes, so every worker routes a group to the
// same partition.
func aggPartOf(key []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h & (aggFanout - 1))
}

// aggPart is one radix partition of a thread's hash table: its resident
// states and the sorted state runs spilled so far.
type aggPart struct {
	groups map[string]*aggState
	runs   []*extsort.StateRun
}

// aggTable is one accumulation thread's partitioned hash table. It is
// not safe for concurrent use; the parallel aggregate builds one per
// worker and merges them at finish.
type aggTable struct {
	node        *plan.AggNode
	groupTypes  []types.Type
	rowEstimate int64
	pool        *buffer.Pool
	tmpDir      string
	stats       *Stats
	prof        *OpProfile  // aggregate node's profile slot (nil off)
	qstats      *QueryStats // per-query roll-up for the slow log (nil off)
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

	parts    [aggFanout]aggPart
	curTouch int64 // seq+1 of the morsel being accumulated
	// spillFile backs every run this table spills (one fd per thread,
	// however many spill rounds happen); created on first spill.
	spillFile *extsort.StateSpillFile
	keyBuf    []byte
	payBuf    []byte
	stBuf     []*aggState
	reserved  int64
	rows      int64 // rows accumulated (worker-split test hook)
	spills    int64
}

// newAggTable builds one accumulation worker's table. tables is the
// aggregation's worker count: the tables share the budget, which sizes
// the proactive-shed share (a lone table keeps half the budget).
func newAggTable(ctx *Context, n *plan.AggNode, tables int) *aggTable {
	t := &aggTable{
		node:       n,
		groupTypes: groupTypes(n),
		pool:       ctx.Pool,
		tmpDir:     ctx.TmpDir,
		stats:      ctx.Stats,
		prof:       ctx.Prof.Slot(n),
		qstats:     ctx.QStats,
	}
	t.rowEstimate = keyBytesEstimate(t.groupTypes) + int64(len(n.Aggs))*48 + 64
	t.spillable = ctx.Pool != nil && ctx.Pool.Limit() > 0
	t.retain = tables > 1 || t.spillable
	if t.spillable {
		div := int64(2 * tables)
		if div < 2 {
			div = 2
		}
		t.softCap = ctx.Pool.Limit() / div
		if t.softCap < 1 {
			t.softCap = 1
		}
	}
	for p := range t.parts {
		t.parts[p].groups = make(map[string]*aggState)
	}
	return t
}

// accumulate folds one chunk into the table. seq is the chunk's
// sequence number in the source's stream (its morsel, for a pipeline);
// all chunks of one seq must be accumulated consecutively.
func (t *aggTable) accumulate(ctx *Context, seq int, chunk *vector.Chunk) error {
	ng := len(t.node.GroupBy)
	na := len(t.node.Aggs)
	n := chunk.Len()
	t.curTouch = int64(seq) + 1
	if t.spillable && t.reserved > t.softCap {
		if err := t.shed(); err != nil {
			return err
		}
	}
	groupVecs := make([]*vector.Vector, ng)
	for i, g := range t.node.GroupBy {
		v, err := g.Eval(chunk)
		if err != nil {
			return err
		}
		groupVecs[i] = v
	}
	argVecs := make([]*vector.Vector, na)
	for j, spec := range t.node.Aggs {
		if spec.Arg != nil {
			v, err := spec.Arg.Eval(chunk)
			if err != nil {
				return err
			}
			argVecs[j] = v
		}
	}
	if cap(t.stBuf) < n {
		t.stBuf = make([]*aggState, n)
	}
	states := t.stBuf[:n]
	for r := 0; r < n; r++ {
		t.keyBuf = encodeKeyRow(t.keyBuf[:0], groupVecs, r)
		p := aggPartOf(t.keyBuf)
		part := &t.parts[p]
		// map lookup with string(bytes) is allocation-free; the key is
		// only materialized for new groups.
		st, ok := part.groups[string(t.keyBuf)]
		if !ok {
			key := string(t.keyBuf)
			if err := t.reserve(t.rowEstimate); err != nil {
				return err
			}
			st = &aggState{
				groupKey: make([]types.Value, ng),
				accs:     make([]accumulator, na),
				firstPos: packAggPos(seq, r),
			}
			for i := range groupVecs {
				st.groupKey[i] = groupVecs[i].Get(r)
			}
			for j, spec := range t.node.Aggs {
				if spec.Distinct {
					st.accs[j].distinct = make(map[string]struct{})
				}
			}
			part.groups[key] = st
		}
		st.touch = t.curTouch
		states[r] = st
	}
	for j, spec := range t.node.Aggs {
		updateAggChunk(spec, j, states, argVecs[j], int64(seq), t.retain)
	}
	t.rows += int64(n)
	if t.spillable {
		return t.chargeExtras(states)
	}
	return nil
}

// chargeExtras settles the budget for accumulator growth beyond the flat
// per-group estimate — DOUBLE per-morsel subtotals and DISTINCT value
// sets — for the states the last chunk touched. Without it, a handful of
// long-lived groups could grow far past the budget without ever
// tripping a new-group reservation.
func (t *aggTable) chargeExtras(states []*aggState) error {
	for _, st := range states {
		extra := st.extraBytes()
		if extra == st.accounted {
			continue // duplicate visit in this chunk, or no growth
		}
		delta := extra - st.accounted
		if err := t.reserve(delta); err != nil {
			return err
		}
		st.accounted = extra
	}
	return nil
}

// reserve claims budget, spilling partitions (largest reclaimable first)
// until the reservation fits. States touched by the in-flight morsel are
// never spilled — a spill must not split a (group, morsel) DOUBLE
// subtotal — so a reservation can still fail when a single morsel's
// working set alone exceeds the budget.
func (t *aggTable) reserve(n int64) error {
	if t.pool == nil || n == 0 {
		return nil
	}
	if t.pool.Reserve(n) == nil {
		t.reserved += n
		return nil
	}
	if !t.spillable {
		return fmt.Errorf("aggregation exceeded memory budget: %w", buffer.ErrOutOfMemory)
	}
	for {
		spilled, err := t.spillOne()
		if err != nil {
			return err
		}
		if !spilled {
			return fmt.Errorf("aggregation exceeded memory budget (one morsel's distinct groups alone overflow it): %w", buffer.ErrOutOfMemory)
		}
		if t.pool.Reserve(n) == nil {
			t.reserved += n
			return nil
		}
	}
}

// shed spills partitions until the table is back under its budget
// share. Unlike reserve's failure path it tolerates running out of
// spillable partitions — the in-flight morsel's states legitimately
// stay resident.
func (t *aggTable) shed() error {
	for t.reserved > t.softCap {
		spilled, err := t.spillOne()
		if err != nil {
			return err
		}
		if !spilled {
			return nil
		}
	}
	return nil
}

// spillOne spills the partition with the most reclaimable bytes,
// reporting false when nothing is spillable.
func (t *aggTable) spillOne() (bool, error) {
	best, bestBytes := -1, int64(0)
	for p := range t.parts {
		var b int64
		for _, st := range t.parts[p].groups {
			if st.touch != t.curTouch {
				b += t.rowEstimate + st.accounted
			}
		}
		if b > bestBytes {
			best, bestBytes = p, b
		}
	}
	if best < 0 {
		return false, nil
	}
	return true, t.spillPart(best)
}

// spillPart serializes partition p's spillable states to a sorted-key
// state run and returns their budget.
func (t *aggTable) spillPart(p int) error {
	part := &t.parts[p]
	keys := make([]string, 0, len(part.groups))
	for k, st := range part.groups {
		if st.touch != t.curTouch {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
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
	var freed int64
	for _, k := range keys {
		st := part.groups[k]
		for j := range st.accs {
			st.accs[j].flushF(true)
		}
		t.payBuf = encodeAggState(t.payBuf[:0], st, t.node.Aggs)
		if err := w.Append([]byte(k), t.payBuf); err != nil {
			w.Abort()
			return err
		}
		freed += t.rowEstimate + st.accounted
		delete(part.groups, k)
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	part.runs = append(part.runs, run)
	t.reserved -= freed
	t.pool.Release(freed)
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

// spillAll spills every partition's remaining resident states. The
// finish phase calls it (nothing is in flight anymore) so the merge
// streams from runs with O(block) memory and the output sorters inherit
// the whole budget.
func (t *aggTable) spillAll() error {
	t.curTouch = 0 // no morsel in flight; every state is spillable
	for p := range t.parts {
		if len(t.parts[p].groups) == 0 {
			continue
		}
		if err := t.spillPart(p); err != nil {
			return err
		}
	}
	return nil
}

// close releases the table's budget and spill file. Idempotent.
func (t *aggTable) close() {
	for p := range t.parts {
		t.parts[p].runs = nil
		t.parts[p].groups = nil
	}
	if t.spillFile != nil {
		t.spillFile.Close()
		t.spillFile = nil
	}
	if t.pool != nil && t.reserved > 0 {
		t.pool.Release(t.reserved)
	}
	t.reserved = 0
}

// ---- spilled-state codec ----

// encodeAggState serializes one group's accumulators. DOUBLE subtotals
// are stored as their exact (morsel seq, bits) leaves and DISTINCT sets
// as sorted encoded values, so a round trip loses nothing the
// deterministic finish fold depends on.
func encodeAggState(buf []byte, st *aggState, aggs []plan.AggSpec) []byte {
	buf = binary.AppendVarint(buf, st.firstPos)
	for j := range aggs {
		acc := &st.accs[j]
		if acc.distinct != nil {
			buf = append(buf, 1)
			keys := make([]string, 0, len(acc.distinct))
			for k := range acc.distinct {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			buf = binary.AppendUvarint(buf, uint64(len(keys)))
			for _, k := range keys {
				buf = binary.AppendUvarint(buf, uint64(len(k)))
				buf = append(buf, k...)
			}
			continue
		}
		buf = append(buf, 0)
		buf = binary.AppendVarint(buf, acc.count)
		buf = binary.AppendVarint(buf, acc.sumI)
		buf = binary.AppendUvarint(buf, uint64(len(acc.subF)))
		for _, s := range acc.subF {
			buf = binary.AppendVarint(buf, s.seq)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.sum))
		}
		if acc.bestSet {
			buf = append(buf, 1)
			vk := encodeValueKey(nil, acc.best)
			buf = binary.AppendUvarint(buf, uint64(len(vk)))
			buf = append(buf, vk...)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// stateReader decodes encodeAggState payloads with one sticky error.
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

func decodeAggState(payload []byte, aggs []plan.AggSpec) (*aggState, error) {
	r := &stateReader{b: payload}
	st := &aggState{accs: make([]accumulator, len(aggs))}
	st.firstPos = r.varint()
	for j := range aggs {
		acc := &st.accs[j]
		if r.byte() == 1 {
			n := r.uvarint()
			acc.distinct = make(map[string]struct{}, n)
			for i := 0; i < n && r.err == nil; i++ {
				k := string(r.bytes(r.uvarint()))
				acc.distinct[k] = struct{}{}
				acc.distBytes += int64(len(k)) + 16
			}
			continue
		}
		acc.count = r.varint()
		acc.sumI = r.varint()
		ns := r.uvarint()
		acc.subF = make([]fsub, 0, ns)
		for i := 0; i < ns && r.err == nil; i++ {
			seq := r.varint()
			sum := math.Float64frombits(r.u64())
			acc.subF = append(acc.subF, fsub{seq: seq, sum: sum})
		}
		if r.byte() == 1 {
			vk := r.bytes(r.uvarint())
			if r.err == nil {
				acc.best = decodeValueKey(string(vk), aggs[j].Arg.Type())
				acc.bestSet = true
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}

// ---- finish phase ----

// aggFinish streams the merged groups of one or more aggTables in
// first-seen (firstPos) order. Without spills it emits straight from the
// merged in-memory states; with spills it streams a MergeFinish iterator
// over per-worker firstPos-keyed sorters fed by the partition merges.
type aggFinish struct {
	node   *plan.AggNode
	ng, na int

	states []*aggState // in-memory path, sorted by firstPos
	pos    int

	iter *extsort.Iterator // spilled path

	mergeGroups []int64 // groups merged per finish worker (test hook)
}

// finishAggTables merges the tables (one per accumulation thread) into
// an emission stream. On success ownership of any output-sorter files
// moves to the returned finish; the tables themselves (reservations,
// state runs) stay owned by the caller and must outlive the stream.
func finishAggTables(ctx *Context, node *plan.AggNode, tables []*aggTable) (*aggFinish, error) {
	ng, na := len(node.GroupBy), len(node.Aggs)
	f := &aggFinish{node: node, ng: ng, na: na}

	// Flush pending per-chunk DOUBLE subtotals before any merge.
	spilled := false
	for _, t := range tables {
		if t.spills > 0 {
			spilled = true
		}
		for p := range t.parts {
			for _, st := range t.parts[p].groups {
				for j := range st.accs {
					st.accs[j].flushF(t.retain)
				}
			}
		}
	}

	if !spilled {
		f.states = mergeResidentTables(node, tables)
		if ng == 0 && len(f.states) == 0 {
			f.states = append(f.states, emptyGlobalState(node))
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
	outTypes := append(schemaTypes(node.Schema()), types.BigInt)
	sortKeys := []extsort.Key{{Col: ng + na}}
	workers := ctx.Threads
	if workers > aggFanout {
		workers = aggFanout
	}
	if workers < 1 {
		workers = 1
	}
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
	return f, nil
}

// mergeResidentTables merges the tables' resident states in memory
// (spill-free finish), keeping the earliest first-seen position per
// group. States migrate into the first table's maps; reservation
// ownership stays with the tables. The returned states are sorted by
// first-seen position — the map iteration order they are collected in
// must never reach the emission stream.
func mergeResidentTables(node *plan.AggNode, tables []*aggTable) []*aggState {
	var states []*aggState
	for p := 0; p < aggFanout; p++ {
		base := tables[0].parts[p].groups
		for _, t := range tables[1:] {
			for key, st := range t.parts[p].groups {
				dst, ok := base[key]
				if !ok {
					base[key] = st
					continue
				}
				if st.firstPos < dst.firstPos {
					dst.firstPos = st.firstPos
				}
				for j := range node.Aggs {
					mergeAccumulator(node.Aggs[j], &dst.accs[j], &st.accs[j])
				}
			}
		}
		for _, st := range base {
			for j := range st.accs {
				st.accs[j].foldSubF()
			}
			states = append(states, st)
		}
	}
	sort.Slice(states, func(i, j int) bool { return states[i].firstPos < states[j].firstPos })
	return states
}

// emptyGlobalState is the one row a global aggregation (no GROUP BY)
// yields over zero rows: count = 0, other aggregates NULL.
func emptyGlobalState(node *plan.AggNode) *aggState {
	st := &aggState{accs: make([]accumulator, len(node.Aggs))}
	for j, spec := range node.Aggs {
		if spec.Distinct {
			st.accs[j].distinct = make(map[string]struct{})
		}
	}
	return st
}

// runStateSource streams one spilled run's partial states in key order.
// (Resident states never reach the partition merge: the spilled finish
// path spills every table's remainder first, so runs are the only
// sources.)
type runStateSource struct {
	cur  *extsort.StateCursor
	aggs []plan.AggSpec
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

func (s *runStateSource) take() (*aggState, error) {
	st, err := decodeAggState(s.cur.State(), s.aggs)
	if err != nil {
		return nil, err
	}
	return st, s.advance()
}

// mergeAggPartition k-way merges one partition's spilled runs across
// all tables in group-key order, folds each group's partials and
// appends the finished row to the worker's output sorter.
func mergeAggPartition(p int, node *plan.AggNode, tables []*aggTable, outTypes []types.Type, sorter *extsort.Sorter, groupsMerged *int64) error {
	ng, na := len(node.GroupBy), len(node.Aggs)
	gts := groupTypes(node)
	var srcs []*runStateSource
	defer func() {
		// Release every cursor's read-back block reservation; drained
		// cursors already did, so this only matters on error exits.
		for _, s := range srcs {
			s.cur.Close()
		}
	}()
	for _, t := range tables {
		for _, run := range t.parts[p].runs {
			rs := &runStateSource{cur: run.Cursor(), aggs: node.Aggs}
			srcs = append(srcs, rs)
			if err := rs.advance(); err != nil {
				return err
			}
		}
	}

	out := vector.NewChunk(outTypes)
	flush := func() error {
		if out.Len() == 0 {
			return nil
		}
		if err := sorter.Add(out); err != nil {
			return err
		}
		out = vector.NewChunk(outTypes)
		return nil
	}
	var minKey []byte
	for {
		// Find the smallest current key, then take-and-merge every source
		// holding it. Merge order between sources is irrelevant: counts,
		// integer sums, min/max and set unions commute, and DOUBLE
		// subtotal lists are re-sorted by morsel seq before folding.
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
		var merged *aggState
		for _, s := range srcs {
			k, ok := s.curKey()
			if !ok || !bytes.Equal(k, minKey) {
				continue
			}
			st, err := s.take()
			if err != nil {
				return err
			}
			if merged == nil {
				merged = st
				continue
			}
			if st.firstPos < merged.firstPos {
				merged.firstPos = st.firstPos
			}
			for j := range node.Aggs {
				mergeAccumulator(node.Aggs[j], &merged.accs[j], &st.accs[j])
			}
		}
		for j := range merged.accs {
			merged.accs[j].foldSubF()
		}
		if merged.groupKey == nil {
			vals, err := decodeGroupKey(string(minKey), gts)
			if err != nil {
				return err
			}
			merged.groupKey = vals
		}
		row := out.Len()
		out.SetLen(row + 1)
		for i, gv := range merged.groupKey {
			out.Cols[i].Set(row, gv)
		}
		for j, spec := range node.Aggs {
			out.Cols[ng+j].Set(row, finishAgg(spec, &merged.accs[j]))
		}
		out.Cols[ng+na].Set(row, types.NewBigInt(merged.firstPos))
		*groupsMerged++
		if out.Len() == vector.ChunkCapacity {
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
		out := &vector.Chunk{Cols: c.Cols[:f.ng+f.na]}
		out.SetLen(c.Len())
		return out, nil
	}
	if f.pos >= len(f.states) {
		return nil, nil
	}
	out := vector.NewChunk(schemaTypes(f.node.Schema()))
	for f.pos < len(f.states) && out.Len() < vector.ChunkCapacity {
		st := f.states[f.pos]
		f.pos++
		row := out.Len()
		out.SetLen(row + 1)
		for i, gv := range st.groupKey {
			out.Cols[i].Set(row, gv)
		}
		for j, spec := range f.node.Aggs {
			out.Cols[f.ng+j].Set(row, finishAgg(spec, &st.accs[j]))
		}
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
	f.states = nil
}
