package exec

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/extsort"
	"repro/internal/plan"
	"repro/internal/vector"
)

// OpProfile is one operator's slot in its query's profile. Every query
// is profiled: Build mirrors the optimized plan — not the physical
// operator tree — into one slot per node and hands each operator its
// own, so the profile's shape is identical at every thread count;
// workers of a pipeline all add into the same slot's atomics, and row
// counts come out equal at every thread count by the engine's
// determinism guarantee. A slot is named (plan.Node.Explain) only when
// the profile is read (Snapshot).
type OpProfile struct {
	node plan.Node
	// Children are the slots of the node's children, in Children()
	// order: a run of the query's one slot array (mirror).
	Children []OpProfile

	// WallNs is inclusive wall time observed at the operator boundary
	// (Open+Next+Close, children included). BusyNs is summed worker time:
	// on a pipeline's scan leaf, the time spent scanning and running the
	// stages below the first join (its only time — the pipeline has no
	// pull boundary); on a join, the time its probe and the stages above
	// it spent, plus its build; on a breaker, the time its sinks spent
	// consuming the source's chunks (accumulation, run generation),
	// which is part of its WallNs and never part of the source's BusyNs.
	WallNs atomic.Int64
	BusyNs atomic.Int64

	Rows    atomic.Int64
	Chunks  atomic.Int64
	Morsels atomic.Int64

	SegsScanned atomic.Int64
	SegsSkipped atomic.Int64
	// SegsEncoded counts scanned segments that executed encoded;
	// DecodedRows vs SelectedRows contrasts rows materialized against
	// rows emitted — equal on the encoded path (late materialization),
	// decoded >= selected on the full-decode path.
	SegsEncoded  atomic.Int64
	DecodedRows  atomic.Int64
	SelectedRows atomic.Int64

	SpillBytes atomic.Int64
	SpillParts atomic.Int64

	// AggGroups is the number of groups an aggregation produced;
	// AggStateBytes the peak, over the query, of what its workers' group
	// stores held reserved together (aggStateCur is the running total).
	AggGroups     atomic.Int64
	AggStateBytes atomic.Int64
	aggStateCur   atomic.Int64
	// AggFinishNs is the time an aggregation spent finishing its workers'
	// tables (finishAggTables); AggFolded the groups it folded from one
	// table into another in place; AggReloadedParts the partitions it
	// re-loaded from state runs, and AggResplitDepth the deepest re-split
	// of one (0: none).
	AggFinishNs      atomic.Int64
	AggFolded        atomic.Int64
	AggReloadedParts atomic.Int64
	AggResplitDepth  atomic.Int64

	// JoinBuildRows is the size of a join's materialized build side and
	// JoinBuildBytes what the pool held for it and its hash table (the
	// peak: the reservation only grows until the join closes).
	// JoinBuildKeys counts the table's distinct build keys, JoinTableBytes
	// what it occupies (store and row lists). JoinFallback marks an Auto
	// join that degraded to the merge join; the counts are then what the
	// hash build held when it gave up.
	JoinBuildRows  atomic.Int64
	JoinBuildBytes atomic.Int64
	JoinBuildKeys  atomic.Int64
	JoinTableBytes atomic.Int64
	JoinFallback   atomic.Bool

	// SortKeyBytes is the width of one normalized sort key of the
	// operator's external sort; TieFallbacks counts its comparisons that
	// tied on an encoded VARCHAR prefix and compared the full strings.
	SortKeyBytes atomic.Int64
	TieFallbacks atomic.Int64
	// MergeRanges is how many row ranges a sort's or window's merge phase
	// ran on (1: the serial merge on the caller). A window cuts and
	// evaluates its partitions where they are merged.
	MergeRanges atomic.Int64
	// MergeAheadBytes is the most bytes the ranges of a partitioned merge
	// held queued ahead of the consumer at once; MergeParks counts how
	// often a range parked because its next batch found no room.
	MergeAheadBytes atomic.Int64
	MergeParks      atomic.Int64
	// WindowHeldRows is the most rows a window's cursor held at once: the
	// rows of its output slices not yet emitted, and of the merged chunks
	// a function still reads.
	WindowHeldRows atomic.Int64
}

// mirror builds the profile tree of a plan in one allocation: one slot
// per node, laid out breadth first, so the slots of a node's children
// are adjacent and its Children is a slice of the array.
func mirror(root plan.Node) *OpProfile {
	var nodeBuf [16]plan.Node
	var kidBuf [16]int
	nodes, kids := append(nodeBuf[:0], root), kidBuf[:0]
	for i := 0; i < len(nodes); i++ {
		c := nodes[i].Children()
		nodes = append(nodes, c...)
		kids = append(kids, len(c))
	}
	slots := make([]OpProfile, len(nodes))
	next := 1
	for i := range slots {
		end := next + kids[i]
		slots[i].node = nodes[i]
		slots[i].Children = slots[next:end:end]
		next = end
	}
	return &slots[0]
}

// count books one emitted chunk of n rows.
func (o *OpProfile) count(n int) {
	o.Rows.Add(int64(n))
	o.Chunks.Add(1)
}

// noteAggBytes moves the aggregation's reserved state bytes by d and
// raises the recorded peak.
func (o *OpProfile) noteAggBytes(d int64) {
	raisePeak(&o.AggStateBytes, o.aggStateCur.Add(d))
}

// raisePeak raises the high-water mark peak to n.
func raisePeak(peak *atomic.Int64, n int64) {
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// clockBase anchors nanotime.
var clockBase = time.Now()

// nanotime reads the monotonic clock once (time.Now also reads the wall
// clock): the profile's timings are differences of it.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// profOp times an operator at its pull boundary and counts the chunks
// it emits. Wall time is inclusive of children, like every EXPLAIN
// ANALYZE the authors have ever read.
type profOp struct {
	inner Operator
	slot  *OpProfile
}

func (p *profOp) Open(ctx *Context) error {
	t0 := nanotime()
	err := p.inner.Open(ctx)
	p.slot.WallNs.Add(nanotime() - t0)
	return err
}

func (p *profOp) Next(ctx *Context) (*vector.Chunk, error) {
	t0 := nanotime()
	chunk, err := p.inner.Next(ctx)
	p.slot.WallNs.Add(nanotime() - t0)
	if chunk != nil {
		p.slot.count(chunk.Len())
	}
	return chunk, err
}

func (p *profOp) Close(ctx *Context) {
	t0 := nanotime()
	p.inner.Close(ctx)
	p.slot.WallNs.Add(nanotime() - t0)
}

// timedFactory wraps the factory of a stage that is an operator's own
// work — a join's probe — so every chunk it emits is counted into slot
// and its time, less what its emits spent in work booked elsewhere (a
// breaker's sink, a join above), is booked to slot's BusyNs; a pipeline
// worker keeps that time out of its scan's busy time
// (pipeWorker.bookedNs), the way sinkTimed does for a breaker's sink.
// The stages above the probe run inside its emits, so their time is the
// join's: a pipeline's stages are timed with the nearest timed producer
// below them, the scan or a join.
func timedFactory(slot *OpProfile, f stageFactory) stageFactory {
	return func() stage {
		s := &timedStage{inner: f(), slot: slot}
		s.counted = s.count
		return s
	}
}

type timedStage struct {
	inner stage
	slot  *OpProfile
	// booked is the worker's count of nanoseconds booked to slots other
	// than its scan's (bindStages): the stage reads what its emits added
	// and adds its own.
	booked *int64
	// emit is the current run's downstream; counted is s.count bound
	// once, so a run passes no fresh closure to the inner stage.
	emit    func(*vector.Chunk) error
	counted func(*vector.Chunk) error
}

func (s *timedStage) count(out *vector.Chunk) error {
	s.slot.count(out.Len())
	return s.emit(out)
}

//quack:hotpath
func (s *timedStage) run(ctx *Context, c *vector.Chunk, emit func(*vector.Chunk) error) error {
	s.emit = emit
	t0, before := nanotime(), *s.booked
	err := s.inner.run(ctx, c, s.counted)
	total := nanotime() - t0
	s.slot.BusyNs.Add(total - (*s.booked - before))
	*s.booked = before + total
	return err
}

// bindStages points a worker's timed stages at its booked-time count.
func bindStages(stages []stage, booked *int64) {
	for _, s := range stages {
		if ts, ok := s.(*timedStage); ok {
			ts.booked = booked
		}
	}
}

// recordSortSpill books bytes an operator's external sorters spilled
// into the query's account and the operator's profile slot.
func recordSortSpill(ctx *Context, slot *OpProfile, bytes int64) {
	ctx.Stats.SortSpillBytes.Add(bytes)
	slot.SpillBytes.Add(bytes)
}

// recordSortKeys books a finished (or abandoned) external sort's key
// width and tie fallbacks into the query's account and the operator's
// profile slot; call it once the merge workers have stopped.
func recordSortKeys(ctx *Context, slot *OpProfile, iter *extsort.Iterator) {
	ties := iter.TieFallbacks()
	ctx.Stats.SortTieFallbacks.Add(ties)
	slot.SortKeyBytes.Store(int64(iter.KeyBytes()))
	slot.TieFallbacks.Add(ties)
}

// OpProfileSnap is the plain (JSON-marshalable) snapshot of a profile
// slot, taken after the query finished.
type OpProfileSnap struct {
	Name            string           `json:"name"`
	WallNs          int64            `json:"wall_ns,omitempty"`
	BusyNs          int64            `json:"busy_ns,omitempty"`
	Rows            int64            `json:"rows"`
	Chunks          int64            `json:"chunks,omitempty"`
	Morsels         int64            `json:"morsels,omitempty"`
	SegmentsScanned int64            `json:"segments_scanned,omitempty"`
	SegmentsSkipped int64            `json:"segments_skipped,omitempty"`
	SegmentsEncoded int64            `json:"segments_encoded,omitempty"`
	DecodedRows     int64            `json:"decoded_rows,omitempty"`
	SelectedRows    int64            `json:"selected_rows,omitempty"`
	SpillBytes      int64            `json:"spill_bytes,omitempty"`
	SpillPartitions int64            `json:"spill_partitions,omitempty"`
	AggGroups       int64            `json:"agg_groups,omitempty"`
	AggStateBytes   int64            `json:"agg_state_bytes,omitempty"`
	AggFinishNs     int64            `json:"agg_finish_ns,omitempty"`
	AggFolded       int64            `json:"agg_folded,omitempty"`
	AggReloaded     int64            `json:"agg_reloaded_parts,omitempty"`
	AggResplitDepth int64            `json:"agg_resplit_depth,omitempty"`
	JoinBuildRows   int64            `json:"join_build_rows,omitempty"`
	JoinBuildBytes  int64            `json:"join_build_bytes,omitempty"`
	JoinBuildKeys   int64            `json:"join_build_keys,omitempty"`
	JoinTableBytes  int64            `json:"join_table_bytes,omitempty"`
	JoinFallback    string           `json:"join_fallback,omitempty"`
	SortKeyBytes    int64            `json:"sort_key_bytes,omitempty"`
	TieFallbacks    int64            `json:"tie_fallbacks,omitempty"`
	MergeRanges     int64            `json:"merge_ranges,omitempty"`
	MergeAheadBytes int64            `json:"merge_ahead_bytes,omitempty"`
	MergeParks      int64            `json:"merge_parks,omitempty"`
	WindowHeldRows  int64            `json:"window_held_rows,omitempty"`
	Children        []*OpProfileSnap `json:"children,omitempty"`
}

// Snapshot returns the profile tree rooted at o as plain values, named
// after its plan nodes. Take it once the query has finished.
func (o *OpProfile) Snapshot() *OpProfileSnap {
	s := &OpProfileSnap{
		Name:            o.node.Explain(),
		WallNs:          o.WallNs.Load(),
		BusyNs:          o.BusyNs.Load(),
		Rows:            o.Rows.Load(),
		Chunks:          o.Chunks.Load(),
		Morsels:         o.Morsels.Load(),
		SegmentsScanned: o.SegsScanned.Load(),
		SegmentsSkipped: o.SegsSkipped.Load(),
		SegmentsEncoded: o.SegsEncoded.Load(),
		DecodedRows:     o.DecodedRows.Load(),
		SelectedRows:    o.SelectedRows.Load(),
		SpillBytes:      o.SpillBytes.Load(),
		SpillPartitions: o.SpillParts.Load(),
		AggGroups:       o.AggGroups.Load(),
		AggStateBytes:   o.AggStateBytes.Load(),
		AggFinishNs:     o.AggFinishNs.Load(),
		AggFolded:       o.AggFolded.Load(),
		AggReloaded:     o.AggReloadedParts.Load(),
		AggResplitDepth: o.AggResplitDepth.Load(),
		JoinBuildRows:   o.JoinBuildRows.Load(),
		JoinBuildBytes:  o.JoinBuildBytes.Load(),
		JoinBuildKeys:   o.JoinBuildKeys.Load(),
		JoinTableBytes:  o.JoinTableBytes.Load(),
		SortKeyBytes:    o.SortKeyBytes.Load(),
		TieFallbacks:    o.TieFallbacks.Load(),
		MergeRanges:     o.MergeRanges.Load(),
		MergeAheadBytes: o.MergeAheadBytes.Load(),
		MergeParks:      o.MergeParks.Load(),
		WindowHeldRows:  o.WindowHeldRows.Load(),
	}
	if o.JoinFallback.Load() {
		s.JoinFallback = "merge"
	}
	for i := range o.Children {
		s.Children = append(s.Children, o.Children[i].Snapshot())
	}
	return s
}

// WriteTree renders the snapshot as an indented text tree — the body of
// EXPLAIN ANALYZE.
func (s *OpProfileSnap) WriteTree(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(s.Name)
	sb.WriteString("  [")
	fmt.Fprintf(sb, "rows=%d", s.Rows)
	if ns := s.WallNs; ns > 0 {
		fmt.Fprintf(sb, " time=%s", fmtDur(ns))
	}
	if ns := s.BusyNs; ns > 0 {
		fmt.Fprintf(sb, " busy=%s", fmtDur(ns))
	}
	if ns := s.AggFinishNs; ns > 0 {
		fmt.Fprintf(sb, " finish=%s folded=%d reloaded_parts=%d resplit_depth=%d", fmtDur(ns), s.AggFolded, s.AggReloaded, s.AggResplitDepth)
	}
	if s.Morsels > 0 {
		fmt.Fprintf(sb, " morsels=%d", s.Morsels)
	}
	if s.SegmentsScanned > 0 || s.SegmentsSkipped > 0 {
		fmt.Fprintf(sb, " segs=%d/%d scanned/skipped", s.SegmentsScanned, s.SegmentsSkipped)
	}
	if s.SegmentsEncoded > 0 {
		fmt.Fprintf(sb, " enc=%d", s.SegmentsEncoded)
	}
	if s.DecodedRows > 0 || s.SelectedRows > 0 {
		fmt.Fprintf(sb, " decoded=%d selected=%d", s.DecodedRows, s.SelectedRows)
	}
	if s.SpillBytes > 0 {
		fmt.Fprintf(sb, " spilled=%dB", s.SpillBytes)
	}
	if s.SpillPartitions > 0 {
		fmt.Fprintf(sb, " spill_parts=%d", s.SpillPartitions)
	}
	if s.AggGroups > 0 || s.AggStateBytes > 0 {
		fmt.Fprintf(sb, " groups=%d state_bytes=%d", s.AggGroups, s.AggStateBytes)
	}
	if s.JoinBuildRows > 0 || s.JoinBuildBytes > 0 {
		fmt.Fprintf(sb, " build_rows=%d build_keys=%d build_bytes=%d table_bytes=%d",
			s.JoinBuildRows, s.JoinBuildKeys, s.JoinBuildBytes, s.JoinTableBytes)
	}
	if s.JoinFallback != "" {
		fmt.Fprintf(sb, " fallback=%s", s.JoinFallback)
	}
	if s.SortKeyBytes > 0 {
		fmt.Fprintf(sb, " key_bytes=%d tie_fallbacks=%d", s.SortKeyBytes, s.TieFallbacks)
	}
	if s.MergeRanges > 0 {
		fmt.Fprintf(sb, " merge_ranges=%d", s.MergeRanges)
	}
	if s.MergeRanges > 1 {
		fmt.Fprintf(sb, " ahead=%d parks=%d", s.MergeAheadBytes, s.MergeParks)
	}
	if s.WindowHeldRows > 0 {
		fmt.Fprintf(sb, " held_rows=%d", s.WindowHeldRows)
	}
	sb.WriteString("]\n")
	for _, c := range s.Children {
		c.WriteTree(sb, depth+1)
	}
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// FmtDur renders a nanosecond span the way the profile tree does
// (callers composing EXPLAIN ANALYZE phase lines).
func FmtDur(ns int64) string { return fmtDur(ns) }
