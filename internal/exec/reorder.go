package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
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

// mergeStreamFloor is how many batches a range may queue ahead of the
// consumer for free. Past it, every batch is reserved from the pool and
// charged to the range's share of the sort budget.
const mergeStreamFloor = 4

// mergeBatch is one queued batch, its heap bytes, and whether they are
// reserved from the pool.
type mergeBatch struct {
	chunks   []*vector.Chunk
	bytes    int64
	reserved bool
}

// rangeCursor produces one merge range's output in order, a batch of
// chunks at a time: a sorted chunk as merged (chunkCursor), or the
// window output slices that merged chunks completed. nil means the range
// is exhausted. Steps call it from pool workers, one batch per step, so
// a range runs ahead of the consumer by whole batches.
type rangeCursor interface {
	Next() ([]*vector.Chunk, error)
}

// parMergeStream is the consumer side of the partitioned merge: N
// ranges each loser-tree-merge one row range of the merge (an Iterator from
// extsort.PartitionMerge, behind a rangeCursor) and the stream re-emits
// their batches in range order, which is the exact order the
// single-threaded merge would produce. Each range is a re-submitting
// scheduler step that queues one batch at a time, so it keeps merging
// while the consumer reads the ranges before it: mergeStreamFloor
// batches for free, every further one reserved from the pool up to the
// range's share of the sort budget. A batch past the share, or one the
// pool refuses, parks the range until the consumer takes a batch from
// it. With no budget ranges run to their end.
type parMergeStream struct {
	ranges []*mergeRange
	q      *sched.Query
	pool   *buffer.Pool
	share  int64 // reserved bytes a range may queue (0: unbounded)
	slot   *OpProfile
	cancel atomic.Bool
	wg     sync.WaitGroup

	// mu guards the ranges' queues and states and ahead; ready is
	// broadcast whenever a range queues a batch, parks or ends.
	mu    sync.Mutex
	ready *sync.Cond
	ahead int64 // bytes queued in all ranges

	cur int

	// rows counts rows emitted per range. Written by the range's own
	// step chain; read only after the stream is drained or Closed.
	rows []int64
}

// mergeRange is one merge range's task state. Exactly one step is
// outstanding per range at any time (queued, running or parked), so
// end runs exactly once.
type mergeRange struct {
	s    *parMergeStream
	w    int
	part *extsort.Iterator
	cur  rangeCursor
	held *mergeBatch // produced, found no room: queued first when unparked

	// under s.mu
	queue    []*mergeBatch
	reserved int64 // bytes of queue reserved from the pool
	parked   bool
	done     bool
	err      error
}

func newParMergeStream(ctx *Context, parts []*extsort.Iterator, slot *OpProfile, mkCursor func(part *extsort.Iterator) rangeCursor) *parMergeStream {
	s := &parMergeStream{
		ranges: make([]*mergeRange, len(parts)),
		q:      ctx.queryTasks(),
		pool:   ctx.Pool,
		share:  splitBudget(ctx.sortBudget(), len(parts)),
		slot:   slot,
		rows:   make([]int64, len(parts)),
	}
	s.ready = sync.NewCond(&s.mu)
	steps := make([]sched.Task, len(parts))
	for i := range parts {
		s.ranges[i] = &mergeRange{s: s, w: i, part: parts[i], cur: mkCursor(parts[i])}
		steps[i] = s.ranges[i].step
	}
	s.wg.Add(len(parts))
	s.q.Submit(steps...)
	return s
}

// end retires the range. Closing its Iterator releases any loaded
// (pool-accounted) chunk of its clones; the shared parent keeps the
// underlying files open.
func (r *mergeRange) end(err error) {
	s := r.s
	r.part.Close()
	s.mu.Lock()
	r.done, r.err = true, err
	s.ready.Broadcast()
	s.mu.Unlock()
	s.wg.Done()
}

// step produces one batch, unless a batch that found no room is still
// held, and queues it if it fits; otherwise the range parks holding it.
func (r *mergeRange) step() {
	s := r.s
	b := r.held
	if b == nil && !s.cancel.Load() {
		chunks, err := r.cur.Next()
		if err != nil || chunks == nil {
			r.end(err)
			return
		}
		b = &mergeBatch{chunks: chunks}
		for _, c := range chunks {
			s.rows[r.w] += int64(c.Len())
			b.bytes += c.HeapBytes()
		}
	}
	s.mu.Lock()
	if s.cancel.Load() { // checked under mu: Close looks for parked ranges under it
		s.mu.Unlock()
		r.end(nil)
		return
	}
	if !r.admitLocked(b) {
		r.held, r.parked = b, true
		if s.slot != nil {
			s.slot.MergeParks.Add(1)
		}
		s.ready.Broadcast()
		s.mu.Unlock()
		return
	}
	r.held = nil
	r.queue = append(r.queue, b)
	s.ahead += b.bytes
	if s.slot != nil {
		raisePeak(&s.slot.MergeAheadBytes, s.ahead)
	}
	s.ready.Broadcast()
	s.mu.Unlock()
	s.q.Submit(r.step)
}

// admitLocked reports whether b may join the range's queue: free within
// the floor, else within the range's share and a pool reservation.
func (r *mergeRange) admitLocked(b *mergeBatch) bool {
	s := r.s
	if len(r.queue) < mergeStreamFloor {
		return true
	}
	if s.share > 0 && r.reserved+b.bytes > s.share {
		return false
	}
	if s.pool != nil {
		if s.pool.Reserve(b.bytes) != nil {
			return false
		}
		b.reserved = true
		r.reserved += b.bytes
	}
	return true
}

// popLocked takes the range's oldest batch, returns its reservation and
// re-submits the range if it parked for want of room.
func (r *mergeRange) popLocked() *mergeBatch {
	s := r.s
	b := r.queue[0]
	r.queue[0] = nil
	r.queue = r.queue[1:]
	s.ahead -= b.bytes
	if b.reserved {
		r.reserved -= b.bytes
		s.pool.Release(b.bytes)
	}
	if r.parked && !s.cancel.Load() {
		r.parked = false
		s.q.Submit(r.step)
	}
	return b
}

// Next returns the next batch in global key order, or nil at the end. A
// range's error is sticky: the stream stays on that range.
func (s *parMergeStream) Next() ([]*vector.Chunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.cur < len(s.ranges) {
		r := s.ranges[s.cur]
		switch {
		case len(r.queue) > 0:
			return r.popLocked().chunks, nil
		case r.done && r.err != nil:
			return nil, r.err
		case r.done:
			s.cur++
		default:
			s.ready.Wait()
		}
	}
	return nil, nil
}

// Close cancels outstanding range steps, joins them and releases what
// the ranges queued and nobody read. It must be called before the
// parent iterator (which owns the shared run files) closes; a second
// Close finds nothing left to do.
func (s *parMergeStream) Close() {
	s.cancel.Store(true)
	s.mu.Lock()
	for _, r := range s.ranges {
		if r.parked {
			r.parked = false
			s.q.Submit(r.step)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, r := range s.ranges {
		for len(r.queue) > 0 {
			r.popLocked() // every step has ended: no lock needed
		}
	}
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
