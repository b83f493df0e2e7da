package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/vector"
)

// exchangeOp runs per-item stages (filter, project, window evaluation,
// join probe) over the chunk stream of a child operator that is not a
// morsel pipeline — typically a pipeline breaker's output. It is the
// only operator that runs stages over a child.
//
// Like the pipeline, only its driver varies with the worker count. With
// several workers the stream is repartitioned across the engine-wide
// scheduler, so the plan above a breaker does not collapse to one
// thread: the consumer itself pulls the child (operators are not safe
// for concurrent Next) whenever the ticket window has room and submits
// each chunk as a one-shot scheduler task; tasks draw stage instances
// from a free list, so scratch buffers are reused without any goroutine
// owning them. With one worker the stages run inline on the calling
// goroutine, chunk by chunk.
//
// Results are reassembled in input-chunk order, so the operator is
// row-for-row transparent: the output is the same at every worker
// count.
type exchangeOp struct {
	child  Operator
	stages []stageFactory

	inline  []stage // the one stage set of the inline driver
	results chan exResult
	free    chan []stage // reusable per-task stage instances

	// buf is the shared ordered-merge state machine: a ticket is taken
	// before feeding a chunk and returned when that chunk's results are
	// emitted, so the reorder buffer holds at most its window depth in
	// entries even when one task stalls on an expensive chunk.
	buf *reorderBuf

	q         *sched.Query
	cancelled atomic.Bool
	closeOnce sync.Once

	seq       int      // next item sequence to feed
	pending   []exItem // split items not yet submitted
	inflight  int      // submitted items whose results are unreceived
	childDone bool

	failed  error
	workers int
	probe   stage // one stage instance consulted by the split policy
}

// exItem is one work unit of the child's stream, tagged with its
// position: chunk rows [lo, hi). Oversized breaker chunks (a huge
// window partition) are fed as several slice items over one shared
// chunk so they no longer serialize on a single worker.
type exItem struct {
	seq    int
	chunk  *vector.Chunk
	lo, hi int
}

// exResult is one processed chunk: the stages' output for input seq
// (empty when every row was filtered out), or an error.
type exResult struct {
	seq    int
	chunks []*vector.Chunk
	err    error
}

func newExchangeOp(child Operator, stages []stageFactory) *exchangeOp {
	return &exchangeOp{child: child, stages: stages}
}

func (e *exchangeOp) Open(ctx *Context) error {
	return e.child.Open(ctx)
}

func (e *exchangeOp) start(ctx *Context) {
	workers := ctx.Threads
	if workers <= 1 {
		e.inline = e.newStages()
		e.buf = newReorderBuf(0)
		return
	}
	e.workers = workers
	if len(e.stages) > 0 {
		e.probe = e.stages[0]()
	}
	depth := workers * 4
	e.results = make(chan exResult, depth) // cap = tickets: sends never block
	e.free = make(chan []stage, depth)
	e.buf = newReorderBuf(depth)
	e.q = ctx.queryTasks()
}

// takeStages pops a reusable stage set or builds a fresh one. Stage
// instances carry only per-chunk scratch, so any task may use any set —
// exclusively, which the free list guarantees.
func (e *exchangeOp) takeStages() []stage {
	select {
	case s := <-e.free:
		return s
	default:
		return e.newStages()
	}
}

func (e *exchangeOp) newStages() []stage {
	s := make([]stage, len(e.stages))
	for i, f := range e.stages {
		s[i] = f()
	}
	return s
}

func (e *exchangeOp) putStages(s []stage) {
	select {
	case e.free <- s:
	default:
	}
}

// submit schedules one item. The item holds a window ticket, and the
// results channel has one slot per ticket, so the task's send cannot
// block a pool worker.
func (e *exchangeOp) submit(ctx *Context, it exItem) {
	e.inflight++
	e.q.Submit(func() {
		if e.cancelled.Load() {
			e.results <- exResult{seq: it.seq}
			return
		}
		stages := e.takeStages()
		var out []*vector.Chunk
		err := runItem(ctx, stages, it, func(c *vector.Chunk) error {
			if c.Len() > 0 {
				out = append(out, c)
			}
			return nil
		})
		e.putStages(stages)
		e.results <- exResult{seq: it.seq, chunks: out, err: err}
	})
}

// nextItem returns the next work item, pulling the child inline (on the
// consumer goroutine) and splitting oversized chunks as needed. ok is
// false when the child is exhausted.
func (e *exchangeOp) nextItem(ctx *Context) (exItem, bool, error) {
	for len(e.pending) == 0 {
		chunk, err := e.child.Next(ctx)
		if err != nil {
			return exItem{}, false, err
		}
		if chunk == nil {
			return exItem{}, false, nil
		}
		e.pending = e.splitChunk(chunk, e.seq)
		e.seq += len(e.pending)
	}
	it := e.pending[0]
	e.pending = e.pending[1:]
	return it, true, nil
}

// splitChunk turns one child chunk into work items. Engine-sized chunks
// pass through whole; an oversized chunk — only pipeline breakers emit
// them, e.g. the window operator's one-chunk-per-partition stream — is
// re-split into ChunkCapacity-aligned slices capped at 4 per worker, so
// a single huge partition spreads across the pool instead of pinning
// one worker while the rest idle. Slices share the chunk; tasks
// evaluate their own row range (sliceStage) or copy it out. Alignment
// to ChunkCapacity keeps the re-assembled output's chunk boundaries
// exactly those of the unsplit evaluation.
func (e *exchangeOp) splitChunk(chunk *vector.Chunk, seq int) []exItem {
	n := chunk.Len()
	if n <= vector.ChunkCapacity {
		return []exItem{{seq: seq, chunk: chunk, lo: 0, hi: n}}
	}
	if ss, ok := e.probe.(sliceStage); ok && !ss.wantSlices(n) {
		return []exItem{{seq: seq, chunk: chunk, lo: 0, hi: n}}
	}
	units := (n + vector.ChunkCapacity - 1) / vector.ChunkCapacity
	if max := e.workers * 4; units > max {
		units = max
	}
	size := (n + units - 1) / units
	size = (size + vector.ChunkCapacity - 1) / vector.ChunkCapacity * vector.ChunkCapacity
	items := make([]exItem, 0, units)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		items = append(items, exItem{seq: seq, chunk: chunk, lo: lo, hi: hi})
		seq++
	}
	return items
}

// sliceStage is a stage that can evaluate a row range of a chunk
// in-place — the window eval stage computes rows [lo, hi) of a
// partition without copying it. Stages without it get a copied
// sub-chunk instead. wantSlices lets the stage veto splitting when
// range evaluation cannot win: a growing-frame window re-folds its
// whole prefix per slice (the fold is inherently serial), so slicing
// those would burn CPU for no wall-clock gain.
type sliceStage interface {
	stage
	wantSlices(n int) bool
	runSlice(ctx *Context, c *vector.Chunk, lo, hi int, emit func(*vector.Chunk) error) error
}

// runItem threads one work item through the stages. Whole chunks take
// the plain path; slices go to the first stage's native range support
// when it has one, else the rows are copied out first.
func runItem(ctx *Context, stages []stage, it exItem, sink func(*vector.Chunk) error) error {
	if it.lo == 0 && it.hi == it.chunk.Len() {
		return runStages(ctx, stages, it.chunk, sink)
	}
	if len(stages) > 0 {
		if ss, ok := stages[0].(sliceStage); ok {
			rest := stages[1:]
			return ss.runSlice(ctx, it.chunk, it.lo, it.hi, func(out *vector.Chunk) error {
				return runStages(ctx, rest, out, sink)
			})
		}
	}
	sub := vector.NewChunk(it.chunk.Types())
	for ci, col := range sub.Cols {
		col.AppendRange(it.chunk.Cols[ci], it.lo, it.hi-it.lo)
	}
	sub.SetLen(it.hi - it.lo)
	return runStages(ctx, stages, sub, sink)
}

// push queues one non-empty result chunk of the inline driver.
func (e *exchangeOp) push(c *vector.Chunk) error {
	if c.Len() > 0 {
		e.buf.push(c)
	}
	return nil
}

// Next drives the exchange. Inline, it pulls one child chunk and runs
// the stages over it right here. On the scheduler it feeds the child's
// chunks to tasks while the ticket window has room, then reassembles the
// results: out-of-order results wait in a reorder buffer bounded by the
// window tickets, so at most cap(window) chunks are in flight between
// feed and emission.
//
//quack:hotpath
func (e *exchangeOp) Next(ctx *Context) (*vector.Chunk, error) {
	if e.failed != nil {
		return nil, e.failed
	}
	if e.buf == nil {
		e.start(ctx)
	}
	for {
		if out, ok := e.buf.pop(); ok {
			return out, nil
		}
		if e.inline != nil {
			chunk, err := e.child.Next(ctx)
			if err == nil && chunk != nil {
				err = runStages(ctx, e.inline, chunk, e.push)
			}
			if err != nil {
				e.failed = err
			}
			if err != nil || chunk == nil {
				return nil, err
			}
			continue
		}
		if e.buf.advance() {
			continue
		}
		if !e.childDone && e.buf.tryAcquire() {
			it, ok, err := e.nextItem(ctx)
			if err != nil {
				e.buf.release()
				e.failed = err
				return nil, err
			}
			if !ok {
				e.buf.release()
				e.childDone = true
				continue
			}
			e.submit(ctx, it)
			continue
		}
		if e.inflight > 0 {
			res := <-e.results
			e.inflight--
			if res.err != nil {
				e.failed = res.err
				return nil, res.err
			}
			e.buf.park(res.seq, res.chunks)
			continue
		}
		// Nothing in flight and either the child is done or the window
		// is exhausted by parked sequences; a remaining gap can only be
		// a seq abandoned by an error path.
		if e.buf.parked() > 0 {
			e.buf.skip()
			continue
		}
		return nil, nil
	}
}

// Close drains outstanding tasks and closes the child. Queued tasks
// observe the cancel flag and post empty results immediately; every
// submitted item posts exactly one result, so the drain terminates.
func (e *exchangeOp) Close(ctx *Context) {
	e.closeOnce.Do(func() {
		e.cancelled.Store(true)
		for e.inflight > 0 {
			<-e.results
			e.inflight--
		}
		if e.buf != nil {
			e.buf.drop()
		}
		e.child.Close(ctx)
	})
}

// buildExchange compiles a Filter/Project chain that sits on anything
// but a table scan (a breaker, a join, a LIMIT, ...) into one exchange
// over that child: there is one filter and one project implementation,
// the stages, whether a pipeline or an exchange runs them.
func buildExchange(node plan.Node, prof *Profiler) (Operator, error) {
	var stages []stageFactory
	cur := node
peel:
	for {
		switch n := cur.(type) {
		case *plan.FilterNode:
			cond := n.Cond
			stages = append(stages, profFactory(prof.Slot(n),
				func() stage { return &filterStage{cond: cond} }))
			cur = n.Child
		case *plan.ProjectNode:
			exprs := n.Exprs
			stages = append(stages, profFactory(prof.Slot(n),
				func() stage { return &projectStage{exprs: exprs} }))
			cur = n.Child
		default:
			break peel
		}
	}
	base, err := buildOperator(cur, prof)
	if err != nil {
		return nil, err
	}
	// Stages were collected top-down; the exchange applies them in child
	// → parent order.
	for i, j := 0, len(stages)-1; i < j; i, j = i+1, j-1 {
		stages[i], stages[j] = stages[j], stages[i]
	}
	// The top node's stage already counts rows; the wrapper adds wall
	// time at the exchange boundary.
	return prof.wrap(newExchangeOp(base, stages), node, false), nil
}
