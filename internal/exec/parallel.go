package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/table"
	"repro/internal/vector"
)

// sinkFunc receives one chunk a source produced, tagged with the
// sequence number that orders it in the source's stream. Every chunk
// has a seq of its own, and seqs grow in stream order: a position
// derived from (seq, row in chunk) — first-seen group order, the sort
// and window tiebreak, the hash join's build order, the DOUBLE
// reduction's subtotal boundaries — is then the same whichever worker
// saw the chunk. A pipeline numbers the chunks one morsel emits with
// chunkSeq, any other operator's chunks are numbered by arrival.
type sinkFunc func(seq int, c *vector.Chunk) error

// chunkSeqBits is how many low bits of a pipeline's seq number the
// chunks of one morsel: a probe may emit many chunks for one morsel.
// The rest holds the morsel number, and packAggPos shifts a seq by 16
// more bits, so a morsel number must stay below 1<<(47-chunkSeqBits).
const chunkSeqBits = 24

// chunkSeq is the seq of the k-th chunk morsel m's pipeline emitted. It
// fails instead of wrapping when either count outgrows its bits.
func chunkSeq(m, k int) (int, error) {
	if k >= 1<<chunkSeqBits || m >= 1<<(47-chunkSeqBits) {
		return 0, fmt.Errorf("exec: morsel %d emitted chunk %d: past the %d-bit chunk counter", m, k, chunkSeqBits)
	}
	return m<<chunkSeqBits | k, nil
}

// source is what a pipeline breaker (aggregate, sort, window
// partitioner, hash-join build and probe) is written against. Next
// streams the source's chunks in sequence order; consume instead pushes
// them into worker-local sinks with no ordering barrier. There are two
// providers: the morsel pipeline (pipelineOp) and the adapter that
// presents any other operator as a one-worker source (opSource). A join
// is a source too: it forwards to its probe side's source, whose
// workers run the probe.
type source interface {
	Operator
	// attachStages appends per-worker stages behind the source's own
	// (a join's probe). Call it before the first Next or consume.
	attachStages(f ...stageFactory)
	// workerCount is how many worker states the source can keep busy
	// under ctx.Threads. Valid after Open.
	workerCount(ctx *Context) int
	// consume drains the source on `workers` worker states (at most
	// workerCount): state w pushes every non-empty chunk it produces into
	// mkSink(w). mkSink runs on the calling goroutine and consume returns
	// after every state has retired, so sinks need no locking of their
	// own. slot is the breaker's profile slot: time spent inside the
	// sinks is booked to its BusyNs, not to the source.
	consume(ctx *Context, workers int, slot *OpProfile, mkSink func(w int) sinkFunc) error
}

// sinkTimed hands chunk c to a breaker's sink, books the time it took
// to slot, and adds it to *booked, the worker's count of time booked
// elsewhere, which keeps it out of the worker's own busy time.
func sinkTimed(sink sinkFunc, slot *OpProfile, booked *int64, seq int, c *vector.Chunk) error {
	t0 := nanotime()
	err := sink(seq, c)
	ns := nanotime() - t0
	slot.BusyNs.Add(ns)
	*booked += ns
	return err
}

// opSource presents any operator that is neither a pipeline nor a join
// as a one-worker source: its chunks are drained on the calling
// goroutine, run through the attached stages right there, and numbered
// by arrival, which is the order every consumer would see.
type opSource struct {
	Operator
	stages []stage
	queue  []*vector.Chunk // stage output Next has yet to return
	// booked counts the time its timed stages and sink booked; the
	// operator's own time is its profOp's, so nothing reads it.
	booked int64
}

func (s *opSource) attachStages(f ...stageFactory) {
	for _, mk := range f {
		s.stages = append(s.stages, mk())
	}
	bindStages(s.stages, &s.booked)
}

func (s *opSource) workerCount(*Context) int { return 1 }

// Next pulls the operator and runs the stages over each chunk; chunks
// the stages empty are dropped.
func (s *opSource) Next(ctx *Context) (*vector.Chunk, error) {
	for len(s.queue) == 0 {
		c, err := s.Operator.Next(ctx)
		if err != nil || c == nil || len(s.stages) == 0 {
			return c, err
		}
		if err := runStages(ctx, s.stages, c, s.push); err != nil {
			return nil, err
		}
	}
	c := s.queue[0]
	s.queue = s.queue[1:]
	return c, nil
}

func (s *opSource) push(c *vector.Chunk) error {
	if c.Len() > 0 {
		s.queue = append(s.queue, c)
	}
	return nil
}

func (s *opSource) consume(ctx *Context, _ int, slot *OpProfile, mkSink func(int) sinkFunc) error {
	sink := mkSink(0)
	for seq := 0; ; seq++ {
		c, err := s.Next(ctx)
		if err == nil && c != nil && c.Len() > 0 {
			err = sinkTimed(sink, slot, &s.booked, seq, c)
		}
		if err != nil || c == nil {
			return err
		}
	}
}

// pipelineOp executes a morsel-driven pipeline: a table scan whose
// segments are the morsels, followed by per-worker stages. It keeps
// workerCount worker states (a morsel scanner plus private stage
// instances each), and every state runs the same body — claim a morsel,
// run the stages, hand the surviving chunks on (pipeWorker.morsel).
//
// Only the driver varies with the worker count. Several states advance
// as short re-submitting steps on the engine-wide scheduler, so the
// goroutines belong to the shared pool and a query never spawns its
// own. A single state runs the body inline on the calling goroutine:
// there is nothing to overlap, and sessions that each run one worker
// then execute side by side on their own goroutines instead of queueing
// behind one another in the pool.
//
// Next emits the chunks in morsel order, so consumers observe the same
// chunk stream at every worker count: on the scheduler the states are
// the producers of an orderedStream whose positions are morsels, and
// their run-ahead is bounded like a merge range's.
//
// consume is the sink mode for pipeline breakers: no ordering barrier.
type pipelineOp struct {
	spec  *pipelineSpec
	extra []stageFactory // stages attached by a parent (join probe)

	src     *table.MorselSource
	nmorsel int
	inline  *pipeWorker // Next's one state run on the caller, retired at Close

	stream *orderedStream // Next's states on the scheduler (nil: inline)
	out    batchReader    // what Next drains; unset until started

	// consume's states on the scheduler: wg joins them, and the first
	// failing state sets failed (under mu) and cancelled.
	wg        sync.WaitGroup
	mu        sync.Mutex
	cancelled atomic.Bool

	closeOnce sync.Once
	// failed is the stream's sticky error: set by Next on the consumer,
	// or under mu by the first failing state of a consume.
	failed error
}

// pipeWorker is one worker state: a morsel scanner, private stage
// instances and where its chunks go.
type pipeWorker struct {
	op     *pipelineOp
	ctx    *Context
	ms     *table.MorselScanner
	stages []stage
	// sink is consume's sink and breaker the slot its time is booked
	// to; Next's states have no sink and collect into out.
	sink    sinkFunc
	breaker *OpProfile
	// bookedNs is the time the current morsel spent in work booked to
	// another profile slot: a breaker's sink, a join's probe.
	bookedNs int64
	// seq and k number the current morsel's output chunks (chunkSeq);
	// put is emit bound once, what every morsel's stages run into.
	seq, k int
	put    func(*vector.Chunk) error
	// busyNs, rows and chunks are the scan's share of this state's work:
	// its busy time and the raw morsel chunks it scanned, booked into
	// the scan's slot when the state retires.
	busyNs, rows, chunks int64
	q                    *sched.Query
	// out collects the current morsel's chunks for Next.
	out []*vector.Chunk
}

func newPipelineOp(spec *pipelineSpec) *pipelineOp { return &pipelineOp{spec: spec} }

func (p *pipelineOp) attachStages(f ...stageFactory) { p.extra = append(p.extra, f...) }

// workerCount sizes the worker state: no more states than morsels, at
// least 1.
func (p *pipelineOp) workerCount(ctx *Context) int {
	w := ctx.Threads
	if w > p.nmorsel {
		w = p.nmorsel
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Open acquires the morsel source (pinning the scanned columns, which
// can fail under a memory budget). Workers start lazily on the first
// Next or consume, so parents may still attach stages after a
// successful Open.
func (p *pipelineOp) Open(ctx *Context) error {
	src, err := p.spec.scan.Table.Data.NewMorselSource(ctx.Txn, scanOptions(ctx, p.spec.scan))
	if err != nil {
		return err
	}
	p.src = src
	p.nmorsel = src.NumMorsels()
	return nil
}

// newWorker builds one worker state; the caller points its sink.
func (p *pipelineOp) newWorker(ctx *Context) *pipeWorker {
	w := &pipeWorker{op: p, ctx: ctx, ms: p.src.Worker(), stages: p.spec.newStages()}
	w.put = w.emit
	for _, f := range p.extra {
		w.stages = append(w.stages, f())
	}
	bindStages(w.stages, &w.bookedNs)
	return w
}

// morsel is the one worker body: claim a morsel, run the stages over it
// and hand every non-empty result chunk to the sink under its chunkSeq.
// It returns the morsel's sequence number, -1 once the source is
// exhausted. The scan's busy time covers the scan and the filter and
// projection stages below a join only — a join's probe and a breaker's
// sink book their own.
//
//quack:hotpath
func (w *pipeWorker) morsel() (int, error) {
	t0 := nanotime()
	w.bookedNs = 0
	seq, chunk, err := w.ms.Next()
	if seq < 0 && err == nil {
		return -1, nil
	}
	if chunk != nil {
		w.rows += int64(chunk.Len())
		w.chunks++
	}
	if err == nil && chunk != nil {
		w.seq, w.k = seq, 0
		err = runStages(w.ctx, w.stages, chunk, w.put)
	}
	w.busyNs += nanotime() - t0 - w.bookedNs
	return seq, err
}

// emit hands an output chunk of the current morsel on under its
// chunkSeq, dropping empty ones: into the batch Next returns, or timed
// into consume's sink.
//
//quack:hotpath
func (w *pipeWorker) emit(c *vector.Chunk) error {
	if c.Len() == 0 {
		return nil
	}
	seq, err := chunkSeq(w.seq, w.k)
	if err != nil {
		return err
	}
	w.k++
	if w.sink == nil {
		w.out = append(w.out, c)
		return nil
	}
	return sinkTimed(w.sink, w.breaker, &w.bookedNs, seq, c)
}

// next is Next's producer step, inline or on the scheduler: one morsel's
// chunks as the batch at its sequence number, empty when the segment was
// skipped or every row filtered out.
func (w *pipeWorker) next(b *streamBatch) (bool, error) {
	seq, err := w.morsel()
	if seq < 0 || err != nil {
		return false, err
	}
	*b = streamBatch{chunks: w.out, start: seq, span: 1}
	w.out = nil
	return true, nil
}

// close retires a producer state; the morsel source is the operator's.
func (w *pipeWorker) close() { w.retire() }

// retire books the state's share of the scan into the scan's slot. A
// state retires once, after its last morsel.
func (w *pipeWorker) retire() {
	slot := w.op.spec.scanSlot
	slot.BusyNs.Add(w.busyNs)
	if w.op.spec.countScanRows {
		slot.Rows.Add(w.rows)
		slot.Chunks.Add(w.chunks)
	}
}

// step is consume's scheduler driver: run the body for one morsel, then
// re-submit. The first error cancels the sibling states.
//
//quack:hotpath
func (w *pipeWorker) step() {
	p := w.op
	if !p.cancelled.Load() {
		seq, err := w.morsel()
		if seq >= 0 && err == nil {
			w.q.Submit(w.step)
			return
		}
		if err != nil {
			p.mu.Lock()
			if p.failed == nil {
				p.failed = err
			}
			p.mu.Unlock()
			p.cancelled.Store(true)
		}
	}
	w.retire()
	p.wg.Done()
}

// start sets up Next: one state run inline, or several as the producers
// of an ordered stream on the scheduler. Every state collects its
// morsel's chunks into the state's batch (emit).
func (p *pipelineOp) start(ctx *Context) {
	n := p.workerCount(ctx)
	if n == 1 {
		p.inline = p.newWorker(ctx)
		p.out.next = p.inline.next
		return
	}
	prods := make([]producer, n)
	for i := range prods {
		prods[i] = p.newWorker(ctx)
	}
	p.stream = newOrderedStream(ctx, prods, p.nmorsel)
	p.out.next = p.stream.Next
}

// Next implements Operator: it emits the pipeline's chunks in morsel
// order.
//
//quack:hotpath
func (p *pipelineOp) Next(ctx *Context) (*vector.Chunk, error) {
	if p.failed != nil {
		return nil, p.failed
	}
	if p.out.next == nil {
		p.start(ctx)
	}
	c, err := p.out.chunk()
	if err != nil {
		p.failed = err
	}
	return c, err
}

// consume implements source. It replaces Next; Close must still be
// called to release the morsel source. On the scheduler each state is a
// re-submitting step, so the FIFO round-robins morsels across states
// even on a one-worker pool — partial sinks stay spread the way
// per-state goroutines would have spread them. Every state is built
// before any is submitted, and all are submitted in one batch, so a
// state cannot run through several morsels before its siblings are
// queued.
//
//quack:hotpath
func (p *pipelineOp) consume(ctx *Context, workers int, slot *OpProfile, mkSink func(w int) sinkFunc) error {
	mk := func(i int) *pipeWorker {
		w := p.newWorker(ctx)
		w.sink, w.breaker = mkSink(i), slot
		return w
	}
	if workers <= 1 { // inline driver
		w := mk(0)
		for {
			if seq, err := w.morsel(); err != nil || seq < 0 {
				w.retire()
				return err
			}
		}
	}
	q := ctx.queryTasks()
	steps := make([]sched.Task, workers)
	for i := range steps {
		w := mk(i)
		w.q = q
		steps[i] = w.step
	}
	p.wg.Add(workers)
	q.Submit(steps...)
	p.wg.Wait()
	return p.failed
}

// Close stops Next's worker states — queued steps observe the cancel
// flag and retire, parked ones are dropped, queued batches released —
// retires the inline one, books what the scan did into the query's
// account and the scan's profile slot, and then releases the morsel
// source.
func (p *pipelineOp) Close(ctx *Context) {
	p.closeOnce.Do(func() {
		if p.stream != nil {
			p.stream.Close()
		}
		if p.inline != nil {
			p.inline.retire()
		}
		if p.src != nil {
			p.bookScan(ctx, p.src.Counts())
			p.src.Close()
		}
		p.out = batchReader{}
	})
}

// bookScan adds a retired scan's counts to the query's account and to
// the scan's slot: every morsel a worker claimed was scanned or skipped.
func (p *pipelineOp) bookScan(ctx *Context, c table.ScanCounts) {
	st := &ctx.Stats
	st.SegsScanned.Add(c.Scanned)
	st.SegsSkipped.Add(c.Skipped)
	st.SegsEncoded.Add(c.Encoded)
	st.RowsEncSelected.Add(c.EncodedRows)
	slot := p.spec.scanSlot
	slot.Morsels.Add(c.Scanned + c.Skipped)
	slot.SegsScanned.Add(c.Scanned)
	slot.SegsSkipped.Add(c.Skipped)
	slot.SegsEncoded.Add(c.Encoded)
	slot.DecodedRows.Add(c.DecodedRows)
	slot.SelectedRows.Add(c.SelectedRows)
}
