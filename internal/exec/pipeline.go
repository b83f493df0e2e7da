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

	// scanSlot is the scan node's profile slot: the pipeline books its
	// morsels, segment counts and its workers' busy time there when it
	// closes. countScanRows means the raw morsel chunks are the scan
	// node's output (no filter was pushed into the scan) and the workers'
	// row counts are booked too; with a pushed filter the wrapped filter
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
// (aggregate, join, sort, limit, ...) or a non-table source; slot is
// node's profile slot. Filters pushed into the scan become the
// pipeline's first stage.
func compilePipeline(node plan.Node, slot *OpProfile) *pipelineSpec {
	if n, ok := node.(*plan.ScanNode); ok {
		spec := &pipelineSpec{scan: n, scanSlot: slot, countScanRows: true}
		if f := n.Filter; f != nil {
			// The pushed filter is part of the scan node's semantics: the
			// scan slot counts post-filter rows.
			spec.countScanRows = false
			spec.stages = append(spec.stages, func() stage { return &filterStage{cond: f, slot: slot} })
		}
		return spec
	}
	f := nodeStage(node, slot)
	if f == nil {
		return nil
	}
	spec := compilePipeline(node.Children()[0], &slot.Children[0])
	if spec != nil {
		spec.stages = append(spec.stages, f)
	}
	return spec
}

// nodeStage returns the stage a filter or projection node compiles to —
// the same whether a pipeline or another source runs it — or nil for any
// other node. The stage counts what it emits into slot, node's profile
// slot, so per-node row counts survive the pipeline collapse.
func nodeStage(node plan.Node, slot *OpProfile) stageFactory {
	switch n := node.(type) {
	case *plan.FilterNode:
		cond := n.Cond
		return func() stage { return &filterStage{cond: cond, slot: slot} }
	case *plan.ProjectNode:
		exprs := n.Exprs
		return func() stage { return &projectStage{exprs: exprs, slot: slot} }
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
// rows are dropped. The condition selects rows into the stage's scratch
// and the survivors are compacted once, into a chunk of their size. It
// counts the chunks it emits into slot.
type filterStage struct {
	cond    expr.Expr
	slot    *OpProfile
	scratch expr.Scratch
}

//quack:hotpath
func (f *filterStage) run(ctx *Context, c *vector.Chunk, emit func(*vector.Chunk) error) error {
	f.scratch.Reset()
	sel, err := expr.Select(f.cond, c, nil, &f.scratch)
	if err != nil || len(sel) == 0 {
		return err
	}
	f.slot.count(len(sel))
	if len(sel) == c.Len() {
		return emit(c)
	}
	return emit(c.Compact(sel))
}

// projectStage computes expressions over the chunk and counts the
// chunks it emits into slot.
type projectStage struct {
	exprs []expr.Expr
	slot  *OpProfile
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
	p.slot.count(c.Len())
	return emit(out)
}
