package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// TestProfiledStageAllocs: every query is profiled, so counting a
// stage's rows into its slot — and the timed wrapper a join's probe runs
// in — must cost no allocation per chunk beyond the stage's own. A
// filter stage built by Build, and one behind timedFactory, allocate no
// more per chunk than a bare filterStage over the same chunk.
func TestProfiledStageAllocs(t *testing.T) {
	mgr := txn.NewManager(nil)
	entry := buildFactTable(t, mgr, int(vector.ChunkCapacity))
	v := &expr.ColRef{Idx: 0, Typ: types.BigInt}
	bigint := func(n int64) expr.Expr { return &expr.Const{Val: types.NewBigInt(n)} }
	// Half the rows survive, so both compact the chunk.
	cond := &expr.Compare{Op: expr.CmpEq, L: &expr.Arith{Op: expr.OpMod, L: v, R: bigint(2), Typ: types.BigInt}, R: bigint(0)}
	op, _, err := Build(&plan.FilterNode{Child: &plan.ScanNode{Table: entry, Columns: []int{0}}, Cond: cond})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := op.(*pipelineOp)
	if !ok || len(p.spec.stages) != 1 {
		t.Fatalf("built %T, want a pipeline with one stage", op)
	}
	var booked int64
	built := p.spec.newStages()
	timed := []stage{timedFactory(new(OpProfile), func() stage { return &filterStage{cond: cond, slot: new(OpProfile)} })()}
	bindStages(built, &booked)
	bindStages(timed, &booked)

	c := vector.NewChunk([]types.Type{types.BigInt})
	for i := range int64(vector.ChunkCapacity) {
		c.AppendRow(types.NewBigInt(i))
	}
	ctx := &Context{}
	rows := 0
	emit := func(out *vector.Chunk) error {
		rows += out.Len()
		return nil
	}
	allocs := func(s stage) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := s.run(ctx, c, emit); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := allocs(&filterStage{cond: cond, slot: new(OpProfile)})
	for _, tc := range []struct {
		name string
		s    stage
	}{{"built", built[0]}, {"timed", timed[0]}} {
		if got := allocs(tc.s); got > bare {
			t.Errorf("%s filter stage allocates %.1f per chunk, a bare filterStage %.1f", tc.name, got, bare)
		}
	}
	if rows == 0 {
		t.Fatal("the filter kept no rows")
	}
}

// TestMirrorIsOneArray: a query's profile is one array of slots, each
// node's children's slots a run of it, so mirroring a plan of up to 16
// nodes costs one allocation.
func TestMirrorIsOneArray(t *testing.T) {
	tree := func(inputs int) plan.Node {
		var union plan.UnionAllNode
		for range inputs {
			union.Inputs = append(union.Inputs, &plan.FilterNode{Child: &plan.ValuesNode{}})
		}
		return &plan.LimitNode{Child: &plan.SortNode{Child: &plan.AggNode{Child: &plan.ProjectNode{Child: &union}}}}
	}
	var check func(n plan.Node, o *OpProfile) int
	check = func(n plan.Node, o *OpProfile) int {
		kids := n.Children()
		if o.node != n || len(o.Children) != len(kids) {
			t.Fatalf("slot of %T mirrors %T with %d children, want %d", n, o.node, len(o.Children), len(kids))
		}
		count := 1
		for i, c := range kids {
			count += check(c, &o.Children[i])
		}
		return count
	}
	// 45 nodes: more than mirror's stack buffers hold.
	if root := tree(20); check(root, mirror(root)) != 45 {
		t.Fatal("a 45-node plan did not mirror into 45 slots")
	}
	root := tree(5)
	if check(root, mirror(root)) != 15 {
		t.Fatal("a 15-node plan did not mirror into 15 slots")
	}
	if a := testing.AllocsPerRun(100, func() { mirror(root) }); a != 1 {
		t.Fatalf("mirror allocates %.1f times, want 1", a)
	}
}
