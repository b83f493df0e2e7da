package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/extsort"
	"repro/internal/sched"
	"repro/internal/vector"
)

// reorderBuf is the ordered-merge state machine of the morsel pipeline
// (pipelineOp), which fans morsels out to the scheduler and must re-emit
// their results in morsel order. It bounds how far producers may run
// ahead of the merge point: a ticket is taken (tryAcquire) before work
// is submitted and returned when that sequence's results are emitted,
// so the reorder buffer holds at most cap(window) entries even under
// scheduling skew.
//
// The consumer side is single-threaded: park stashes a completed
// sequence, advance promotes the next expected sequence's chunks to the
// emission queue (returning its ticket), and pop drains the queue.
type reorderBuf struct {
	window  chan struct{}
	pending map[int][]*vector.Chunk
	queue   []*vector.Chunk
	nextSeq int
}

func newReorderBuf(depth int) *reorderBuf {
	return &reorderBuf{
		window:  make(chan struct{}, depth),
		pending: make(map[int][]*vector.Chunk, depth),
	}
}

// tryAcquire takes a ticket if one is free. Scheduler steps must not
// block, so a producer that misses parks itself instead of waiting.
func (b *reorderBuf) tryAcquire() bool {
	select {
	case b.window <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a ticket without emitting anything (a producer that
// acquired one but claimed no work).
func (b *reorderBuf) release() { <-b.window }

// park stores one sequence's result chunks for ordered emission.
func (b *reorderBuf) park(seq int, chunks []*vector.Chunk) { b.pending[seq] = chunks }

// seq returns the next sequence number the merge is waiting for.
func (b *reorderBuf) seq() int { return b.nextSeq }

// pop returns the next queued chunk, if any.
func (b *reorderBuf) pop() (*vector.Chunk, bool) {
	if len(b.queue) == 0 {
		return nil, false
	}
	c := b.queue[0]
	b.queue = b.queue[1:]
	return c, true
}

// push queues a chunk for emission directly: an inline driver produces
// in sequence order and needs neither tickets nor parking.
func (b *reorderBuf) push(c *vector.Chunk) { b.queue = append(b.queue, c) }

// advance promotes the next expected sequence's parked chunks to the
// emission queue and returns its ticket. It reports false when that
// sequence has not arrived yet.
func (b *reorderBuf) advance() bool {
	chunks, ok := b.pending[b.nextSeq]
	if !ok {
		return false
	}
	delete(b.pending, b.nextSeq)
	b.nextSeq++
	b.release()
	b.queue = chunks
	return true
}

// drop frees the buffered chunks (shutdown).
func (b *reorderBuf) drop() {
	b.pending = nil
	b.queue = nil
}

// ---- partitioned-merge re-emission ----

// mergeStreamDepth bounds how many batches each range may run ahead of
// the in-order consumer.
const mergeStreamDepth = 4

type mergeMsg struct {
	chunks []*vector.Chunk
	err    error
}

// rangeCursor produces one key range's output in order, a batch of
// chunks at a time: a sorted chunk as merged (chunkCursor), or the
// window output slices that merged chunks completed. nil means the range
// is exhausted. Steps call it from pool workers, one batch per step, so
// a range runs ahead of the consumer by whole batches.
type rangeCursor interface {
	Next() ([]*vector.Chunk, error)
}

// parMergeStream is the consumer side of the partitioned merge: N
// ranges each loser-tree-merge one disjoint key range (an Iterator from
// extsort.PartitionMerge, behind a rangeCursor) and the stream re-emits
// their batches in range order, which is the exact order the
// single-threaded merge would produce. Each range runs as a
// re-submitting scheduler step producing one batch at a time; its
// channel bounds how far it runs ahead, and a range whose channel is
// full parks — costing the shared pool nothing — until the consumer
// drains it.
type parMergeStream struct {
	outs   []chan mergeMsg
	ranges []*mergeRange
	q      *sched.Query
	cancel atomic.Bool
	wg     sync.WaitGroup
	cur    int
	err    error
	closed bool

	// rows counts rows emitted per range. Written by the range's own
	// step chain; read only after the stream is drained or Closed.
	rows []int64
}

// mergeRange is one key range's task state. Exactly one step is
// outstanding per range at any time (queued, running or parked), so
// finish runs exactly once.
type mergeRange struct {
	s      *parMergeStream
	w      int
	part   *extsort.Iterator
	cur    rangeCursor
	mu     sync.Mutex
	parked bool
}

func newParMergeStream(ctx *Context, parts []*extsort.Iterator, mkCursor func(part *extsort.Iterator) rangeCursor) *parMergeStream {
	s := &parMergeStream{
		outs:   make([]chan mergeMsg, len(parts)),
		ranges: make([]*mergeRange, len(parts)),
		q:      ctx.queryTasks(),
		rows:   make([]int64, len(parts)),
	}
	for i := range parts {
		s.outs[i] = make(chan mergeMsg, mergeStreamDepth)
		s.ranges[i] = &mergeRange{s: s, w: i, part: parts[i], cur: mkCursor(parts[i])}
		s.wg.Add(1)
		s.q.Submit(s.ranges[i].step)
	}
	return s
}

// finish retires the range: the channel close is the consumer's
// end-of-range signal, and dropping the range's cursors releases any
// loaded (pool-accounted) chunk of its boundary-capped clones. The
// shared parent keeps the underlying files open.
func (r *mergeRange) finish() {
	close(r.s.outs[r.w])
	r.part.Close()
	r.s.wg.Done()
}

// step produces one batch. The channel-room check happens before the
// cursor runs and the step is the channel's only sender, so the send
// can never block a pool worker; a full channel parks the range until
// the consumer frees a slot.
func (r *mergeRange) step() {
	s := r.s
	if s.cancel.Load() {
		r.finish()
		return
	}
	r.mu.Lock()
	if len(s.outs[r.w]) == cap(s.outs[r.w]) {
		r.parked = true
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	b, err := r.cur.Next()
	if err != nil {
		s.outs[r.w] <- mergeMsg{err: err}
		r.finish()
		return
	}
	if b == nil {
		r.finish()
		return
	}
	for _, c := range b {
		s.rows[r.w] += int64(c.Len())
	}
	s.outs[r.w] <- mergeMsg{chunks: b}
	s.q.Submit(r.step)
}

// unpark re-submits a parked range after the consumer freed a slot.
func (s *parMergeStream) unpark(w int) {
	r := s.ranges[w]
	r.mu.Lock()
	if r.parked && !s.cancel.Load() {
		r.parked = false
		s.q.Submit(r.step)
	}
	r.mu.Unlock()
}

// Next returns the next batch in global key order, or nil at the end.
func (s *parMergeStream) Next() ([]*vector.Chunk, error) {
	if s.err != nil {
		return nil, s.err
	}
	for s.cur < len(s.outs) {
		msg, ok := <-s.outs[s.cur]
		if !ok {
			s.cur++
			continue
		}
		s.unpark(s.cur)
		if msg.err != nil {
			s.err = msg.err
			return nil, msg.err
		}
		return msg.chunks, nil
	}
	return nil, nil
}

// Close cancels outstanding range steps and joins them. It must be
// called before the parent iterator (which owns the shared run files)
// closes.
func (s *parMergeStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.cancel.Store(true)
	for _, r := range s.ranges {
		r.mu.Lock()
		if r.parked {
			r.parked = false
			s.q.Submit(r.step)
		}
		r.mu.Unlock()
	}
	s.wg.Wait()
}

// chunkCursor is the plain rangeCursor: the sorted chunks as merged,
// one per batch.
type chunkCursor struct{ part *extsort.Iterator }

func (c chunkCursor) Next() ([]*vector.Chunk, error) {
	chunk, err := c.part.Next()
	if chunk == nil || err != nil {
		return nil, err
	}
	return []*vector.Chunk{chunk}, nil
}
