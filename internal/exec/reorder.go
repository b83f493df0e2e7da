package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/extsort"
	"repro/internal/sched"
	"repro/internal/vector"
)

// streamFloor is how many batches a producer may queue ahead of the
// consumer for free. Past it, every batch is reserved from the pool and
// charged to the producer's share of the sort budget.
const streamFloor = 4

// streamBatch is one batch of an ordered stream: its chunks, the first
// position it covers and how many it spans, its heap bytes, and whether
// they are reserved from the pool.
type streamBatch struct {
	chunks      []*vector.Chunk
	start, span int
	bytes       int64
	reserved    bool
}

// producer makes one producer's batches of an ordered stream, in
// position order: next fills b with the next one, reporting false once
// the producer is exhausted. close releases what it holds once it has
// ended.
type producer interface {
	next(b *streamBatch) (bool, error)
	close()
}

// orderedStream is the executor's one ordered hand-off: N producers run
// as re-submitting scheduler steps and one consumer re-emits their
// batches in position order. A position is whatever the producers count
// — a row of the serial merge for a merge range (rangeProducer), a
// morsel for a pipeline's worker state (pipeWorker.next) — and Next
// emits the queued batch that starts where the last one ended, so the
// stream is the one a single producer would have made.
//
// Each step queues one batch, so a producer keeps working while the
// consumer reads the positions before it: streamFloor batches for free,
// every further one reserved from the pool up to the producer's share
// of the sort budget. A batch past the share, or one the pool refuses,
// parks the producer holding it until the consumer takes a batch from
// it. With no budget producers run to their end. A parked producer
// never holds the position the consumer waits for: its held batch
// follows its queued ones, and with nothing queued it is admitted free.
type orderedStream struct {
	prods  []*streamProducer
	q      *sched.Query
	pool   *buffer.Pool
	share  int64 // reserved bytes a producer may queue (0: unbounded)
	end    int   // positions in the stream
	cancel atomic.Bool
	wg     sync.WaitGroup

	// mu guards the producers' queues and states, ahead, peakAhead,
	// parks, live and err; ready is broadcast whenever a producer queues
	// a batch, parks or ends.
	mu        sync.Mutex
	ready     *sync.Cond
	ahead     int64 // bytes queued in all producers
	peakAhead int64 // the most ahead has been
	parks     int64 // times a producer parked for want of room
	live      int   // producers that have not ended
	err       error // the first producer error, sticky

	pos int // the next position to emit

	// rows counts rows queued per producer. Written by the producer's
	// own step chain; read only after the stream is drained or Closed.
	rows []int64
}

// streamProducer is one producer's task state. Exactly one step is
// outstanding per producer at any time (queued, running or parked), so
// end runs exactly once.
type streamProducer struct {
	s    *orderedStream
	w    int
	prod producer
	held *streamBatch // produced, found no room: queued first when unparked

	// under s.mu
	queue    []*streamBatch
	reserved int64 // bytes of queue reserved from the pool
	parked   bool
	done     bool
}

func newOrderedStream(ctx *Context, prods []producer, end int) *orderedStream {
	s := &orderedStream{
		prods: make([]*streamProducer, len(prods)),
		q:     ctx.queryTasks(),
		pool:  ctx.Pool,
		share: splitBudget(ctx.sortBudget(), len(prods)),
		end:   end,
		live:  len(prods),
		rows:  make([]int64, len(prods)),
	}
	s.ready = sync.NewCond(&s.mu)
	steps := make([]sched.Task, len(prods))
	for i, p := range prods {
		s.prods[i] = &streamProducer{s: s, w: i, prod: p}
		steps[i] = s.prods[i].step
	}
	s.wg.Add(len(prods))
	s.q.Submit(steps...)
	return s
}

// end retires the producer. The first error fails the stream and
// cancels the other producers.
func (r *streamProducer) end(err error) {
	s := r.s
	r.prod.close()
	s.mu.Lock()
	r.done = true
	s.live--
	if err != nil && s.err == nil {
		s.err = err
		s.cancel.Store(true)
	}
	s.ready.Broadcast()
	s.mu.Unlock()
	s.wg.Done()
}

// step produces one batch, unless a batch that found no room is still
// held, and queues it if it fits; otherwise the producer parks holding
// it.
func (r *streamProducer) step() {
	s := r.s
	b := r.held
	if b == nil && !s.cancel.Load() {
		b = new(streamBatch)
		if ok, err := r.prod.next(b); err != nil || !ok {
			r.end(err)
			return
		}
		for _, c := range b.chunks {
			s.rows[r.w] += int64(c.Len())
			b.bytes += c.HeapBytes()
		}
	}
	s.mu.Lock()
	if s.cancel.Load() { // checked under mu: Close looks for parked producers under it
		s.mu.Unlock()
		r.end(nil)
		return
	}
	if !r.admitLocked(b) {
		r.held, r.parked = b, true
		s.parks++
		s.ready.Broadcast()
		s.mu.Unlock()
		return
	}
	r.held = nil
	r.queue = append(r.queue, b)
	s.ahead += b.bytes
	s.peakAhead = max(s.peakAhead, s.ahead)
	s.ready.Broadcast()
	s.mu.Unlock()
	s.q.Submit(r.step)
}

// admitLocked reports whether b may join the producer's queue: free
// within the floor or when it holds no bytes (a morsel whose rows were
// all filtered out), else within the producer's share and a pool
// reservation.
func (r *streamProducer) admitLocked(b *streamBatch) bool {
	s := r.s
	if len(r.queue) < streamFloor || b.bytes == 0 {
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

// popLocked takes the producer's oldest batch, returns its reservation
// and re-submits the producer if it parked for want of room.
func (r *streamProducer) popLocked() *streamBatch {
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

// Next fills b with the batch at the next position, reporting false
// once every position is emitted. A position no producer can still
// produce, and the first producer error, fail the stream for good.
func (s *orderedStream) Next(b *streamBatch) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && s.pos < s.end {
		for _, r := range s.prods {
			if len(r.queue) > 0 && r.queue[0].start == s.pos {
				*b = *r.popLocked()
				s.pos += b.span
				return true, nil
			}
		}
		if s.live == 0 {
			s.err = fmt.Errorf("exec: ordered stream: no producer holds position %d of %d", s.pos, s.end)
			break
		}
		s.ready.Wait()
	}
	return false, s.err
}

// Close cancels outstanding producer steps, joins them and releases
// what the producers queued and nobody read. A second Close finds
// nothing left to do.
func (s *orderedStream) Close() {
	s.cancel.Store(true)
	s.mu.Lock()
	for _, r := range s.prods {
		if r.parked {
			r.parked = false
			s.q.Submit(r.step)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, r := range s.prods {
		for len(r.queue) > 0 {
			r.popLocked() // every step has ended: no lock needed
		}
	}
}

// batchReader hands an operator's Next the chunks of a batch source one
// at a time: an ordered stream, or one producer run on the caller.
type batchReader struct {
	next func(b *streamBatch) (bool, error)
	b    streamBatch // the current batch, less the chunks handed out
}

func (r *batchReader) chunk() (*vector.Chunk, error) {
	for len(r.b.chunks) == 0 {
		if ok, err := r.next(&r.b); err != nil || !ok {
			return nil, err
		}
	}
	c := r.b.chunks[0]
	r.b.chunks = r.b.chunks[1:]
	return c, nil
}

// rangeCursor produces one merge range's output in order, a batch of
// chunks at a time: a sorted chunk as merged (chunkCursor), or the
// window output slices that merged chunks completed. nil means the range
// is exhausted.
type rangeCursor interface {
	Next() ([]*vector.Chunk, error)
}

// rangeProducer is a merge range as a producer: its cursor's batches,
// each placed at the first row of the serial merge it covers.
type rangeProducer struct {
	part *extsort.Iterator
	cur  rangeCursor
	pos  int // the serial merge's row the next batch starts at
}

func (r *rangeProducer) next(b *streamBatch) (bool, error) {
	chunks, err := r.cur.Next()
	if err != nil || chunks == nil {
		return false, err
	}
	*b = streamBatch{chunks: chunks, start: r.pos}
	for _, c := range chunks {
		b.span += c.Len()
	}
	r.pos += b.span
	return true, nil
}

// close releases any loaded (pool-accounted) chunk of the range's
// clones; the shared parent keeps the underlying files open.
func (r *rangeProducer) close() { r.part.Close() }

// newMergeStream re-emits the ranges of a partitioned merge
// (extsort.PartitionMerge), each through its cursor; a range starts at
// the rows of the ranges before it. Close the stream before the parent
// iterator, which owns the shared run files.
func newMergeStream(ctx *Context, parts []*extsort.Iterator, cursor func(*Context, *extsort.Iterator) rangeCursor) *orderedStream {
	prods := make([]producer, len(parts))
	rows := 0
	for i, part := range parts {
		prods[i] = &rangeProducer{part: part, cur: cursor(ctx, part), pos: rows}
		rows += part.Rows()
	}
	return newOrderedStream(ctx, prods, rows)
}

// chunkCursor is the plain rangeCursor: the sorted chunks as merged,
// one per batch.
type chunkCursor struct{ part *extsort.Iterator }

func newChunkCursor(_ *Context, part *extsort.Iterator) rangeCursor { return chunkCursor{part} }

func (c chunkCursor) Next() ([]*vector.Chunk, error) {
	chunk, err := c.part.Next()
	if chunk == nil || err != nil {
		return nil, err
	}
	return []*vector.Chunk{chunk}, nil
}
