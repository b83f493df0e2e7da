// Package exec is QuackDB's vectorized "Vector Volcano" execution engine
// (paper §6): pull-based physical operators exchanging 1024-row chunks
// of column slices. Query execution commences by pulling the first chunk
// from the root operator, which recursively pulls from its children down
// to the table scans. The client application itself acts as the true
// root: it polls the engine for chunks, which are handed over without
// copying (§5).
//
// # Morsel-driven pipelines
//
// An embedded engine must use all of the host's hardware (§6), so plans
// are decomposed into pipelines: maximal scan→filter→project chains
// terminated by pipeline breakers (hash aggregate and hash join builds,
// sorts, the result sink). A pipeline's workers draw table segments
// ("morsels") from a shared atomic counter, keeping every core busy
// without up-front range partitioning. Operator state is thread-local —
// each worker owns partial aggregate hash tables and the join-build
// chunks it kept — and is merged once at the pipeline breaker.
// A join's probe is one more stage of its probe side's pipeline, so a
// breaker above a join consumes the probe output on every worker.
// Streaming pipelines reassemble their output in morsel order, and
// breaker merges order groups by first appearance, sorted rows by a
// hidden input-position tiebreak and join matches by build position, so
// a plan returns the same chunks in the same order at every worker
// count.
//
// There is one executor: every operator has a single implementation,
// written against worker-local state, and Context.Threads = 1 is that
// same code with one worker. Only the driver differs — several worker
// states advance as steps on the engine-wide scheduler, a single one
// runs inline on the calling goroutine (see pipelineOp).
//
// The package also houses the join-strategy decision the paper's
// cooperation section describes (§4): an equi-join prefers an in-memory
// hash join, but when the build side does not fit the buffer pool's
// budget it degrades to an out-of-core merge join — fewer resident
// bytes, more CPU and disk IO.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// JoinStrategy selects the physical equi-join implementation.
type JoinStrategy int

// Join strategies. Auto asks the buffer pool whether the estimated build
// side fits and falls back to merge join when it does not.
const (
	JoinAuto JoinStrategy = iota
	JoinForceHash
	JoinForceMerge
)

// Logger receives the logical change records the engine queues into the
// transaction's WAL buffer. The core layer implements it with the real
// WAL encoding; tests may pass nil (no logging).
type Logger interface {
	LogInsert(tx *txn.Transaction, table string, chunk *vector.Chunk)
	LogUpdate(tx *txn.Transaction, table string, col int, rowIDs []int64, vals *vector.Vector)
	LogDelete(tx *txn.Transaction, table string, rowIDs []int64)
}

// QueryStats is one query's account: what its operators did, counted
// once. Operators add to it as they go (a scan books its segment counts
// when its pipeline closes); the core layer adds it into the engine's
// registry cells of the same names when the query ends, error or not,
// and the slow-query log, PRAGMA last_profile and EXPLAIN ANALYZE read
// it. A new per-query count is a field here, and a per-operator one a
// field of OpProfile.
type QueryStats struct {
	// SegsScanned counts table-scan segments that were materialized,
	// SegsSkipped those refuted by zone maps (or their compressed
	// payloads) without being touched. SegsEncoded counts the scanned
	// segments whose pushed filters executed over the compressed
	// payloads, RowsEncSelected the rows those selected and gathered.
	SegsScanned     atomic.Int64
	SegsSkipped     atomic.Int64
	SegsEncoded     atomic.Int64
	RowsEncSelected atomic.Int64
	// AggSpillParts counts aggregation partitions whose states were
	// written to a state run under the memory budget, AggSpillBytes the
	// bytes written. SortSpillBytes totals what external sorts (ORDER
	// BY, window and merge-join sorts) wrote to spill runs.
	AggSpillParts  atomic.Int64
	AggSpillBytes  atomic.Int64
	SortSpillBytes atomic.Int64
	// SortTieFallbacks counts external-sort comparisons that tied on an
	// encoded VARCHAR key prefix and fell back to comparing the strings.
	SortTieFallbacks atomic.Int64
}

// SpillBytes is everything the query's operators spilled.
func (q *QueryStats) SpillBytes() int64 {
	return q.AggSpillBytes.Load() + q.SortSpillBytes.Load()
}

// Context carries per-query execution state.
type Context struct {
	Txn    *txn.Transaction
	Pool   *buffer.Pool
	Logger Logger
	TmpDir string
	// Stats is the query's account.
	Stats QueryStats
	// JoinStrategy overrides the adaptive join choice (experiments).
	JoinStrategy JoinStrategy
	// DisableZoneMaps turns off zone-map segment skipping (the
	// differential baseline: results must be byte-identical either way).
	DisableZoneMaps bool
	// DisableEncodedExec turns off encoded execution: predicates over
	// still-compressed segments with late materialization. Same
	// differential contract as DisableZoneMaps. Encoded execution rides
	// on the pushed zone filters, so disabling zone maps disables it too.
	DisableEncodedExec bool
	// SortBudget caps the in-memory footprint of sorts; <=0 derives it
	// from the pool limit.
	SortBudget int64
	// Threads sizes the worker state of pipelines and sorted streams
	// (morsel scanners, partial tables, merge ranges), read when an operator
	// opens; <=1 means one worker, which runs inline on the calling
	// goroutine. Wider queries run on Sched's engine-wide pool, so
	// Threads bounds a query's task width, not its goroutines.
	Threads int
	// Sched is the engine-wide worker pool shared by every session of a
	// database. nil falls back to a process-global default pool sized at
	// GOMAXPROCS (bare test contexts).
	Sched *sched.Scheduler
	// Query is this query's scheduler account (its place in the pool's
	// ring of turns), created on first use.
	Query *sched.Query
}

var (
	defSchedOnce sync.Once
	defSched     *sched.Scheduler
)

// defaultSched is the process-global pool used by contexts without an
// engine (direct exec tests). Sized at GOMAXPROCS like core.Open.
func defaultSched() *sched.Scheduler {
	defSchedOnce.Do(func() { defSched = sched.New(runtime.GOMAXPROCS(0)) })
	return defSched
}

// queryTasks returns the query's scheduling account, creating it on the
// session goroutine at first use. Operators capture the result at start
// time and submit all their steps through it.
func (c *Context) queryTasks() *sched.Query {
	if c.Query == nil {
		s := c.Sched
		if s == nil {
			s = defaultSched()
		}
		c.Query = s.NewQuery(0)
	}
	return c.Query
}

func (c *Context) sortBudget() int64 {
	if c.SortBudget > 0 {
		return c.SortBudget
	}
	if c.Pool != nil {
		if l := c.Pool.Limit(); l > 0 {
			return l / 2
		}
	}
	return 0 // unlimited, no spill
}

// Operator is a pull-based physical operator.
type Operator interface {
	// Open prepares the operator (and its children) for execution. It is
	// called at most once: after an Open that failed only Close follows.
	Open(ctx *Context) error
	// Next returns the next chunk, or nil when exhausted.
	Next(ctx *Context) (*vector.Chunk, error)
	// Close releases resources, whether or not Open ran or succeeded.
	// Idempotent.
	Close(ctx *Context)
}

// Build translates a logical plan into a physical operator tree and the
// profile its operators book into: one OpProfile slot per plan node,
// rooted at the returned slot, which Build hands to the operators and
// stages of its node. The tree is the same for every worker count:
// operators read Context.Threads when they open.
//
// A maximal scan→filter→project chain compiles into one morsel pipeline
// streaming into whatever sits above it, a join and the filters and
// projections above it into the join (a source), anything else into its
// operator. Sources are not wrapped: their per-node row counts come from
// stage hooks and the pipeline's scan counts, and their time is the
// workers' busy time.
func Build(node plan.Node) (Operator, *OpProfile, error) {
	prof := mirror(node)
	op, err := build(node, prof)
	return op, prof, err
}

// build builds node's operator; slot is node's profile slot.
func build(node plan.Node, slot *OpProfile) (Operator, error) {
	switch node.(type) {
	case *plan.ScanNode, *plan.FilterNode, *plan.ProjectNode, *plan.JoinNode:
		return buildSource(node, slot)
	}
	return buildOperator(node, slot)
}

// buildSource builds the input of a pipeline breaker or join: the
// morsel pipeline when the subtree is one, a join as itself, any other
// operator behind the one-worker adapter. A filter or projection above
// a join or another operator (HAVING over an aggregate, the projection
// stripping hidden sort columns, ...) becomes a stage of the source
// below it.
func buildSource(node plan.Node, slot *OpProfile) (source, error) {
	if spec := compilePipeline(node, slot); spec != nil {
		return newPipelineOp(spec), nil
	}
	if f := nodeStage(node, slot); f != nil {
		src, err := buildSource(node.Children()[0], &slot.Children[0])
		if err != nil {
			return nil, err
		}
		src.attachStages(f)
		return src, nil
	}
	if n, ok := node.(*plan.JoinNode); ok {
		left, err := buildSource(n.Left, &slot.Children[0])
		if err != nil {
			return nil, err
		}
		right, err := buildSource(n.Right, &slot.Children[1])
		if err != nil {
			return nil, err
		}
		return newHashJoin(left, right, n, slot), nil
	}
	op, err := buildOperator(node, slot)
	if err != nil {
		return nil, err
	}
	return &opSource{Operator: op}, nil
}

// buildOperator builds the operator of a node that is not a source of
// its own: a breaker, LIMIT, UNION ALL, VALUES or a DML statement. The
// operator is timed at its pull boundary (profOp).
func buildOperator(node plan.Node, slot *OpProfile) (Operator, error) {
	var op Operator
	switch n := node.(type) {
	case *plan.AggNode:
		// DISTINCT aggregates participate in worker-local partial
		// aggregation: their per-worker value sets merge by set union.
		src, err := buildSource(n.Child, &slot.Children[0])
		if err != nil {
			return nil, err
		}
		op = newAggOp(src, n, slot)
	case *plan.SortNode:
		src, err := buildSource(n.Child, &slot.Children[0])
		if err != nil {
			return nil, err
		}
		op = newSortOp(src, n, slot)
	case *plan.WindowNode:
		src, err := buildSource(n.Child, &slot.Children[0])
		if err != nil {
			return nil, err
		}
		op = newWindowOp(src, n, slot)
	case *plan.LimitNode:
		child, err := build(n.Child, &slot.Children[0])
		if err != nil {
			return nil, err
		}
		op = &limitOp{child: child, limit: n.Limit, offset: n.Offset}
	case *plan.UnionAllNode:
		ops := make([]Operator, len(n.Inputs))
		for i, in := range n.Inputs {
			child, err := build(in, &slot.Children[i])
			if err != nil {
				return nil, err
			}
			ops[i] = child
		}
		op = &unionOp{inputs: ops}
	case *plan.ValuesNode:
		op = &valuesOp{node: n}
	case *plan.InsertNode:
		// DML inputs run like any query: the morsel source snapshots the
		// segment list at open, so an INSERT ... SELECT reading its own
		// target inserts exactly the pre-existing rows, and the ordered
		// merge keeps the consumed row order the same at every worker
		// count. The write itself stays on the consumer.
		child, err := build(n.Child, &slot.Children[0])
		if err != nil {
			return nil, err
		}
		op = &insertOp{child: child, table: n.Table}
	case *plan.UpdateNode:
		// UPDATE/DELETE materialize every row id before touching the
		// table (Halloween protection), so their filter scans can fan
		// out across workers too.
		child, err := build(n.Child, &slot.Children[0])
		if err != nil {
			return nil, err
		}
		op = &updateOp{child: child, node: n}
	case *plan.DeleteNode:
		child, err := build(n.Child, &slot.Children[0])
		if err != nil {
			return nil, err
		}
		op = &deleteOp{child: child, table: n.Table}
	default:
		return nil, fmt.Errorf("exec: no operator for %T", node)
	}
	return &profOp{inner: op, slot: slot}, nil
}

// Run drains an operator tree, invoking sink for every chunk. It opens
// and closes the tree.
func Run(ctx *Context, op Operator, sink func(*vector.Chunk) error) error {
	if err := op.Open(ctx); err != nil {
		op.Close(ctx)
		return err
	}
	defer op.Close(ctx)
	for {
		chunk, err := op.Next(ctx)
		if err != nil {
			return err
		}
		if chunk == nil {
			return nil
		}
		if sink != nil {
			if err := sink(chunk); err != nil {
				return err
			}
		}
	}
}

// Collect drains an operator tree into a slice of chunks.
func Collect(ctx *Context, op Operator) ([]*vector.Chunk, error) {
	var out []*vector.Chunk
	err := Run(ctx, op, func(c *vector.Chunk) error {
		out = append(out, c)
		return nil
	})
	return out, err
}

func schemaTypes(cols []plan.ColInfo) []types.Type {
	out := make([]types.Type, len(cols))
	for i, c := range cols {
		out[i] = c.Type
	}
	return out
}
