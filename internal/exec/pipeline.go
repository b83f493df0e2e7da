package exec

import (
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/vector"
)

// A stage is one per-worker transform of a morsel-driven pipeline:
// it receives one chunk and emits zero or more chunks downstream.
// Stage instances are worker-local (they may carry scratch buffers);
// the expressions they evaluate are shared and immutable.
type stage interface {
	run(ctx *Context, c *vector.Chunk, emit func(*vector.Chunk) error) error
}

// stageFactory builds a fresh stage instance for one worker.
type stageFactory func() stage

// pipelineSpec describes a parallelizable streaming pipeline: a base
// table scan whose segments are the morsels, followed by per-worker
// stages (filter, project; join probes and the stages above them are
// attached by the joins). A pipeline never reorders or buffers rows, so
// its output re-assembled in morsel order is the same chunk stream
// whichever worker ran which morsel.
type pipelineSpec struct {
	scan   *plan.ScanNode
	stages []stageFactory

	// scanSlot is the scan node's profile slot when the query is
	// profiled (nil otherwise): workers add morsel counts and busy time
	// there. countScanRows means the raw morsel chunks are the scan
	// node's output (no filter was pushed into the scan) and the claim
	// site counts their rows; with a pushed filter the wrapped filter
	// stage counts the post-filter rows instead: the pushed filter is
	// part of the scan node.
	scanSlot      *OpProfile
	countScanRows bool
}

// newStages instantiates the pipeline's stages for one worker.
func (p *pipelineSpec) newStages() []stage {
	out := make([]stage, len(p.stages))
	for i, f := range p.stages {
		out[i] = f()
	}
	return out
}

// compilePipeline decomposes a plan subtree into a morsel-driven
// pipeline, or returns nil when the subtree contains a pipeline breaker
// (aggregate, join, sort, limit, ...) or a non-table source. Filters
// pushed into the scan become the pipeline's first stage. When prof is
// non-nil every stage is wrapped with its plan node's profile slot so
// per-node row counts survive the pipeline collapse.
func compilePipeline(node plan.Node, prof *Profiler) *pipelineSpec {
	if n, ok := node.(*plan.ScanNode); ok {
		spec := &pipelineSpec{scan: n, scanSlot: prof.Slot(n), countScanRows: true}
		if f := n.Filter; f != nil {
			// The pushed filter is part of the scan node's semantics: the
			// scan slot counts post-filter rows.
			spec.countScanRows = false
			spec.stages = append(spec.stages, profFactory(spec.scanSlot,
				func() stage { return &filterStage{cond: f} }))
		}
		return spec
	}
	f := nodeStage(node, prof)
	if f == nil {
		return nil
	}
	spec := compilePipeline(node.Children()[0], prof)
	if spec != nil {
		spec.stages = append(spec.stages, f)
	}
	return spec
}

// nodeStage returns the stage a filter or projection node compiles to —
// the same whether a pipeline or another source runs it — or nil for any
// other node.
func nodeStage(node plan.Node, prof *Profiler) stageFactory {
	switch n := node.(type) {
	case *plan.FilterNode:
		cond := n.Cond
		return profFactory(prof.Slot(n), func() stage { return &filterStage{cond: cond} })
	case *plan.ProjectNode:
		exprs := n.Exprs
		return profFactory(prof.Slot(n), func() stage { return &projectStage{exprs: exprs} })
	}
	return nil
}

// runStages threads a chunk through the stages, fanning emitted chunks
// into sink.
//
//quack:hotpath
func runStages(ctx *Context, stages []stage, c *vector.Chunk, sink func(*vector.Chunk) error) error {
	if len(stages) == 0 {
		return sink(c)
	}
	rest := stages[1:]
	return stages[0].run(ctx, c, func(out *vector.Chunk) error {
		return runStages(ctx, rest, out, sink)
	})
}

// filterStage keeps rows where cond is TRUE; morsels with no surviving
// rows are dropped.
type filterStage struct {
	cond   expr.Expr
	selBuf []int
}

//quack:hotpath
func (f *filterStage) run(ctx *Context, c *vector.Chunk, emit func(*vector.Chunk) error) error {
	mask, err := f.cond.Eval(c)
	if err != nil {
		return err
	}
	f.selBuf = expr.SelectTrue(mask, f.selBuf)
	if len(f.selBuf) == 0 {
		return nil
	}
	if len(f.selBuf) == c.Len() {
		return emit(c)
	}
	out := vector.NewChunk(c.Types())
	c.CompactInto(out, f.selBuf)
	return emit(out)
}

// projectStage computes expressions over the chunk.
type projectStage struct {
	exprs []expr.Expr
}

//quack:hotpath
func (p *projectStage) run(ctx *Context, c *vector.Chunk, emit func(*vector.Chunk) error) error {
	out := &vector.Chunk{Cols: make([]*vector.Vector, len(p.exprs))}
	for i, e := range p.exprs {
		v, err := e.Eval(c)
		if err != nil {
			return err
		}
		out.Cols[i] = v
	}
	out.SetLen(c.Len())
	return emit(out)
}
