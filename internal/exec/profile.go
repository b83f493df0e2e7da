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

// OpProfile is one operator's slot in a query profile. The profile tree
// mirrors the optimized plan tree — not the physical operator tree — so
// its shape is identical at every thread count; workers of a pipeline
// all add into the same slot's atomics, and row counts come out equal
// at every thread count by the engine's determinism guarantee.
type OpProfile struct {
	Name     string
	Children []*OpProfile

	// WallNs is inclusive wall time observed at the operator boundary
	// (Open+Next+Close, children included). BusyNs is summed worker time:
	// on a pipeline's scan leaf, the time spent scanning and running
	// stages (its only time — the pipeline has no pull boundary); on a
	// breaker, the time its sinks spent consuming the source's chunks
	// (accumulation, run generation, join build), which is part of its
	// WallNs and never part of the source's BusyNs.
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

// noteAggBytes moves the aggregation's reserved state bytes by d and
// raises the recorded peak. A nil slot is profiling off.
func (o *OpProfile) noteAggBytes(d int64) {
	if o != nil {
		raisePeak(&o.AggStateBytes, o.aggStateCur.Add(d))
	}
}

// noteWindowHeld raises the recorded window held-rows high-water mark to
// n. A nil slot is profiling off.
func (o *OpProfile) noteWindowHeld(n int64) {
	if o != nil {
		raisePeak(&o.WindowHeldRows, n)
	}
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

// Profiler collects one query's profile. A nil *Profiler is the "off"
// state: every hook is a nil check and no allocation happens anywhere
// on the query path.
type Profiler struct {
	Root  *OpProfile
	slots map[plan.Node]*OpProfile
}

// NewProfiler builds the profile tree mirroring an optimized plan.
func NewProfiler(root plan.Node) *Profiler {
	p := &Profiler{slots: make(map[plan.Node]*OpProfile)}
	p.Root = p.mirror(root)
	return p
}

func (p *Profiler) mirror(n plan.Node) *OpProfile {
	slot := &OpProfile{Name: n.Explain()}
	p.slots[n] = slot
	for _, c := range n.Children() {
		slot.Children = append(slot.Children, p.mirror(c))
	}
	return slot
}

// Slot returns the profile slot for a plan node, or nil when profiling
// is off (nil receiver) or the node is not part of the mirrored plan.
func (p *Profiler) Slot(n plan.Node) *OpProfile {
	if p == nil {
		return nil
	}
	return p.slots[n]
}

// wrap decorates a physical operator with its plan node's profile slot.
func (p *Profiler) wrap(op Operator, n plan.Node) Operator {
	slot := p.Slot(n)
	if slot == nil {
		return op
	}
	return &profOp{inner: op, slot: slot}
}

// profOp times an operator at its pull boundary and counts the chunks
// it emits. Wall time is inclusive of children, like every EXPLAIN
// ANALYZE the authors have ever read.
type profOp struct {
	inner Operator
	slot  *OpProfile
}

func (p *profOp) Open(ctx *Context) error {
	t0 := time.Now()
	err := p.inner.Open(ctx)
	p.slot.WallNs.Add(time.Since(t0).Nanoseconds())
	return err
}

func (p *profOp) Next(ctx *Context) (*vector.Chunk, error) {
	t0 := time.Now()
	chunk, err := p.inner.Next(ctx)
	p.slot.WallNs.Add(time.Since(t0).Nanoseconds())
	if chunk != nil {
		p.slot.Rows.Add(int64(chunk.Len()))
		p.slot.Chunks.Add(1)
	}
	return chunk, err
}

func (p *profOp) Close(ctx *Context) {
	t0 := time.Now()
	p.inner.Close(ctx)
	p.slot.WallNs.Add(time.Since(t0).Nanoseconds())
}

// profFactory wraps a stage factory so every chunk the stage emits is
// counted into slot. Stage wrapping is how plan nodes that run as stages
// of a source (filters, projections, a join's probe) keep per-node row
// counts.
func profFactory(slot *OpProfile, f stageFactory) stageFactory {
	if slot == nil {
		return f
	}
	return func() stage { return &profStage{inner: f(), slot: slot} }
}

// timedFactory is profFactory for a stage that is an operator's own work
// — a join's probe: the stage's time, less what its emits spent
// downstream, is booked to slot's BusyNs, and a pipeline worker keeps it
// out of its scan's busy time (pipeWorker.bookedNs), the way timedSink
// does for a breaker's sink.
func timedFactory(slot *OpProfile, f stageFactory) stageFactory {
	if slot == nil {
		return f
	}
	return func() stage { return &profStage{inner: f(), slot: slot, timed: true} }
}

type profStage struct {
	inner stage
	slot  *OpProfile
	timed bool
	// booked, when set, also receives a timed stage's own nanoseconds.
	booked *int64
}

func (s *profStage) run(ctx *Context, c *vector.Chunk, emit func(*vector.Chunk) error) error {
	if !s.timed {
		return s.inner.run(ctx, c, func(out *vector.Chunk) error {
			s.slot.Rows.Add(int64(out.Len()))
			s.slot.Chunks.Add(1)
			return emit(out)
		})
	}
	t0 := time.Now()
	var down int64 // time spent downstream of this stage
	err := s.inner.run(ctx, c, func(out *vector.Chunk) error {
		s.slot.Rows.Add(int64(out.Len()))
		s.slot.Chunks.Add(1)
		t1 := time.Now()
		err := emit(out)
		down += time.Since(t1).Nanoseconds()
		return err
	})
	own := time.Since(t0).Nanoseconds() - down
	s.slot.BusyNs.Add(own)
	if s.booked != nil {
		*s.booked += own
	}
	return err
}

// recordSortSpill books bytes an operator's external sorters spilled
// into the query's account and the operator's profile slot.
func recordSortSpill(ctx *Context, n plan.Node, bytes int64) {
	if bytes <= 0 {
		return
	}
	ctx.Stats.SortSpillBytes.Add(bytes)
	if slot := ctx.Prof.Slot(n); slot != nil {
		slot.SpillBytes.Add(bytes)
	}
}

// recordSortKeys books a finished (or abandoned) external sort's key
// width and tie fallbacks into the query's account and the operator's
// profile slot; call it once the merge workers have stopped.
func recordSortKeys(ctx *Context, n plan.Node, iter *extsort.Iterator) {
	ties := iter.TieFallbacks()
	ctx.Stats.SortTieFallbacks.Add(ties)
	if slot := ctx.Prof.Slot(n); slot != nil {
		slot.SortKeyBytes.Store(int64(iter.KeyBytes()))
		slot.TieFallbacks.Add(ties)
	}
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

// Snapshot returns the profile tree as plain values.
func (p *Profiler) Snapshot() *OpProfileSnap {
	if p == nil || p.Root == nil {
		return nil
	}
	return snapOp(p.Root)
}

func snapOp(o *OpProfile) *OpProfileSnap {
	s := &OpProfileSnap{
		Name:            o.Name,
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
	for _, c := range o.Children {
		s.Children = append(s.Children, snapOp(c))
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
