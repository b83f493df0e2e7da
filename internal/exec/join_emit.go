package exec

import (
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// joinEmitter assembles the output of every join. A probe appends
// candidates — (probe row, build chunk, build row) — and at
// ChunkCapacity candidates or the end of the probe chunk the emitter
// materializes them a column at a time: the probe columns through the
// selection, the build columns through the multi-source gather. It then
// applies the join's residual condition, notes which probe rows found a
// partner and emits what survived; finish pads a LEFT join's partnerless
// probe rows with NULL build columns. One instance serves one probe
// worker (or the merge join's single cursor pair); its scratch is reused
// across probe chunks.
type joinEmitter struct {
	node     *plan.JoinNode
	outTypes []types.Type
	nl       int // probe column count

	probe *vector.Chunk
	emit  func(*vector.Chunk) error

	// The pending output chunk's candidates.
	probeRows [vector.ChunkCapacity]int
	srcs      [vector.ChunkCapacity]*vector.Chunk
	rows      [vector.ChunkCapacity]int32
	n         int

	matched []bool // per probe row; LEFT joins only
	sel     []int
	scratch expr.Scratch // Extra's selection, reset per flush
}

func newJoinEmitter(n *plan.JoinNode) joinEmitter {
	return joinEmitter{node: n, outTypes: schemaTypes(n.Schema()), nl: len(n.Left.Schema())}
}

// begin starts a probe chunk; its output goes to emit.
func (e *joinEmitter) begin(probe *vector.Chunk, emit func(*vector.Chunk) error) {
	e.probe, e.emit = probe, emit
	if e.node.Type != plan.JoinLeft {
		return
	}
	if n := probe.Len(); cap(e.matched) < n {
		e.matched = make([]bool, n)
	} else {
		e.matched = e.matched[:n]
		clear(e.matched)
	}
}

// add appends one candidate: probe row pr paired with row br of bc.
func (e *joinEmitter) add(pr int, bc *vector.Chunk, br int) error {
	e.probeRows[e.n], e.srcs[e.n], e.rows[e.n] = pr, bc, int32(br)
	e.n++
	if e.n == vector.ChunkCapacity {
		return e.flush()
	}
	return nil
}

// assemble builds one output chunk: the probe columns of rows sel and,
// beside them, the pending candidates' build rows — or, for a LEFT
// join's padding, NULLs.
//
//quack:hotpath
func (e *joinEmitter) assemble(sel []int, pad bool) *vector.Chunk {
	out := vector.NewChunk(e.outTypes)
	for c := 0; c < e.nl; c++ {
		e.probe.Cols[c].CompactInto(out.Cols[c], sel)
	}
	if !pad {
		vector.GatherInto(out, e.nl, e.srcs[:len(sel)], e.rows[:len(sel)])
		return out
	}
	out.SetLen(len(sel))
	for _, col := range out.Cols[e.nl:] {
		for i := range sel {
			col.SetNull(i)
		}
	}
	return out
}

// flush turns the pending candidates into one output chunk.
//
//quack:hotpath
func (e *joinEmitter) flush() error {
	n := e.n
	if n == 0 {
		return nil
	}
	e.n = 0
	probeRows := e.probeRows[:n]
	out := e.assemble(probeRows, false)
	if e.node.Extra != nil {
		e.scratch.Reset()
		sel, err := expr.Select(e.node.Extra, out, nil, &e.scratch)
		if err != nil {
			return err
		}
		if len(sel) < n {
			out = out.Compact(sel)
			for i, s := range sel {
				probeRows[i] = probeRows[s]
			}
			probeRows = probeRows[:len(sel)]
		}
	}
	if e.matched != nil {
		for _, pr := range probeRows {
			e.matched[pr] = true
		}
	}
	if out.Len() == 0 {
		return nil
	}
	return e.emit(out)
}

// finish ends the probe chunk: the pending candidates go out, then a
// LEFT join's unmatched probe rows, padded with NULLs.
func (e *joinEmitter) finish() error {
	if err := e.flush(); err != nil || e.matched == nil {
		return err
	}
	e.sel = e.sel[:0]
	for r, m := range e.matched {
		if !m {
			e.sel = append(e.sel, r)
		}
	}
	for lo := 0; lo < len(e.sel); lo += vector.ChunkCapacity {
		part := e.sel[lo:min(lo+vector.ChunkCapacity, len(e.sel))]
		if err := e.emit(e.assemble(part, true)); err != nil {
			return err
		}
	}
	return nil
}
