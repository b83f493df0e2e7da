// Package oracle is a frozen tuple-at-a-time Volcano interpreter over
// the engine's logical plans. It is the independent reference the
// vectorized executor is differentially tested against, and the baseline
// the paper's §6 design choice (vectorized interpreted execution) is
// measured against in experiment E6: every operator produces one row of
// boxed values per call and every expression is re-interpreted per row,
// which is exactly the per-value overhead the chunked engine amortizes
// away.
//
// Only tests and internal/bench import it. It shares no operator, state
// layout, update or finish code with internal/exec (and does not import
// it); the two meet only at the logical plan and at the two helpers
// both must agree on — types.CanonF64Bits and the types value-key codec —
// so agreement between the engines is evidence, not tautology. It does not enforce the memory budget and
// never spills: budgeted runs of the vectorized engine are compared
// against this unbudgeted reference.
package oracle

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/table"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// DB is what the oracle needs of a database: its schema and a snapshot.
// *core.Database satisfies it.
type DB interface {
	Catalog() *catalog.Catalog
	Txns() *txn.Manager
}

// Query runs one SELECT through the row engine on a fresh snapshot and
// returns the materialized rows as boxed values. The plan is the one the
// vectorized engine would run: same binder, same optimizer.
func Query(db DB, sqlText string, params ...types.Value) ([][]types.Value, error) {
	stmt, err := sql.ParseOne(sqlText)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("row engine supports SELECT only")
	}
	binder := &plan.Binder{Cat: db.Catalog(), Params: params}
	node, err := binder.BindSelect(sel)
	if err != nil {
		return nil, err
	}
	it, err := build(plan.Optimize(node))
	if err != nil {
		return nil, err
	}
	tx := db.Txns().Begin()
	defer db.Txns().Rollback(tx) // read-only
	return run(tx, it)
}

// Aggregate runs node's GROUP BY and aggregates over the given boxed
// rows (node.Child is not consulted), one output row per group in
// first-seen order.
func Aggregate(node *plan.AggNode, rows [][]types.Value) ([][]types.Value, error) {
	return run(nil, &rowAgg{child: &rowSlice{rows: rows}, node: node})
}

// Window runs node's window functions over the given boxed rows
// (node.Child is not consulted), returning the
// rows in (partition keys, order keys, input position) order, each
// followed by one value per function.
func Window(node *plan.WindowNode, rows [][]types.Value) ([][]types.Value, error) {
	return run(nil, &rowWindow{child: &rowSlice{rows: rows}, node: node})
}

// rowIterator produces one row at a time; nil row means exhausted.
type rowIterator interface {
	Open(tx *txn.Transaction) error
	NextRow() ([]types.Value, error)
	Close()
}

// build translates a logical plan into tuple-at-a-time operators. Only
// the read-only core (scan, filter, project, join, aggregate, sort,
// window, limit) is supported.
func build(node plan.Node) (rowIterator, error) {
	switch n := node.(type) {
	case *plan.ScanNode:
		return &rowScan{node: n}, nil
	case *plan.FilterNode:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &rowFilter{child: child, cond: n.Cond}, nil
	case *plan.ProjectNode:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &rowProject{child: child, exprs: n.Exprs}, nil
	case *plan.AggNode:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &rowAgg{child: child, node: n}, nil
	case *plan.SortNode:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &rowSort{child: child, node: n}, nil
	case *plan.WindowNode:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &rowWindow{child: child, node: n}, nil
	case *plan.JoinNode:
		left, err := build(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := build(n.Right)
		if err != nil {
			return nil, err
		}
		return &rowJoin{left: left, right: right, node: n}, nil
	case *plan.LimitNode:
		child, err := build(n.Child)
		if err != nil {
			return nil, err
		}
		return &rowLimit{child: child, limit: n.Limit, offset: n.Offset}, nil
	default:
		return nil, fmt.Errorf("oracle: row engine does not support %T", node)
	}
}

// run drains a row iterator.
func run(tx *txn.Transaction, it rowIterator) ([][]types.Value, error) {
	if err := it.Open(tx); err != nil {
		it.Close()
		return nil, err
	}
	defer it.Close()
	var out [][]types.Value
	for {
		row, err := it.NextRow()
		if err != nil || row == nil {
			return out, err
		}
		out = append(out, row)
	}
}

// rowSlice replays boxed rows (the input of Aggregate and Window).
type rowSlice struct {
	rows [][]types.Value
	pos  int
}

func (r *rowSlice) Open(*txn.Transaction) error { r.pos = 0; return nil }
func (r *rowSlice) Close()                      {}
func (r *rowSlice) NextRow() ([]types.Value, error) {
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	r.pos++
	return r.rows[r.pos-1], nil
}

// rowScan iterates the table one row at a time (through one worker of
// a morsel source, materializing each row into boxed values).
type rowScan struct {
	node    *plan.ScanNode
	src     *table.MorselSource
	scanner *table.MorselScanner
	chunk   *vector.Chunk
	pos     int
}

func (s *rowScan) Open(tx *txn.Transaction) error {
	src, err := s.node.Table.Data.NewMorselSource(tx, table.ScanOptions{
		Columns:    s.node.Columns,
		WithRowIDs: s.node.WithRowID,
	})
	if err != nil {
		return err
	}
	s.src, s.scanner = src, src.Worker()
	return nil
}

func (s *rowScan) NextRow() ([]types.Value, error) {
	for {
		if s.chunk == nil || s.pos >= s.chunk.Len() {
			chunk, err := s.scanner.NextChunk()
			if err != nil {
				return nil, err
			}
			if chunk == nil {
				return nil, nil
			}
			s.chunk = chunk
			s.pos = 0
		}
		row := s.chunk.Row(s.pos)
		s.pos++
		if s.node.Filter != nil {
			keep, err := filterRow(s.node.Filter, row)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		return row, nil
	}
}

func (s *rowScan) Close() {
	if s.src != nil {
		s.src.Close()
		s.src = nil
	}
}

type rowFilter struct {
	child rowIterator
	cond  expr.Expr
}

func (f *rowFilter) Open(tx *txn.Transaction) error { return f.child.Open(tx) }

func (f *rowFilter) NextRow() ([]types.Value, error) {
	for {
		row, err := f.child.NextRow()
		if err != nil || row == nil {
			return nil, err
		}
		keep, err := filterRow(f.cond, row)
		if err != nil {
			return nil, err
		}
		if keep {
			return row, nil
		}
	}
}

func (f *rowFilter) Close() { f.child.Close() }

type rowProject struct {
	child rowIterator
	exprs []expr.Expr
}

func (p *rowProject) Open(tx *txn.Transaction) error { return p.child.Open(tx) }

func (p *rowProject) NextRow() ([]types.Value, error) {
	row, err := p.child.NextRow()
	if err != nil || row == nil {
		return nil, err
	}
	return evalRowAll(p.exprs, row)
}

func (p *rowProject) Close() { p.child.Close() }

type rowLimit struct {
	child           rowIterator
	limit, offset   int64
	passed, skipped int64
}

func (l *rowLimit) Open(tx *txn.Transaction) error {
	l.passed, l.skipped = 0, 0
	return l.child.Open(tx)
}

func (l *rowLimit) NextRow() ([]types.Value, error) {
	for {
		if l.limit >= 0 && l.passed >= l.limit {
			return nil, nil
		}
		row, err := l.child.NextRow()
		if err != nil || row == nil {
			return nil, err
		}
		if l.skipped < l.offset {
			l.skipped++
			continue
		}
		l.passed++
		return row, nil
	}
}

func (l *rowLimit) Close() { l.child.Close() }

// rowSort materializes and sorts rows in memory (tuple-at-a-time
// engines cannot stream sorts either; this keeps the baseline honest
// without duplicating the external sorter).
type rowSort struct {
	child rowIterator
	node  *plan.SortNode
	rows  [][]types.Value
	pos   int
	built bool
}

func (s *rowSort) Open(tx *txn.Transaction) error {
	s.rows, s.pos, s.built = nil, 0, false
	return s.child.Open(tx)
}

func (s *rowSort) NextRow() ([]types.Value, error) {
	if !s.built {
		for {
			row, err := s.child.NextRow()
			if err != nil {
				return nil, err
			}
			if row == nil {
				break
			}
			s.rows = append(s.rows, row)
		}
		var sortErr error
		sort.SliceStable(s.rows, func(i, j int) bool {
			for _, k := range s.node.Keys {
				a, err := evalRow(k.Expr, s.rows[i])
				if err != nil {
					sortErr = err
					return false
				}
				b, err := evalRow(k.Expr, s.rows[j])
				if err != nil {
					sortErr = err
					return false
				}
				if a.Null || b.Null {
					if a.Null && b.Null {
						continue
					}
					return a.Null == k.NullsFirst
				}
				c := types.Compare(a, b)
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
		s.built = true
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

func (s *rowSort) Close() { s.child.Close() }

// rowAgg is the tuple-at-a-time hash aggregate: boxed keys, boxed
// accumulators, one map entry per group.
type rowAgg struct {
	child  rowIterator
	node   *plan.AggNode
	groups map[string]*rowAggState
	order  []string
	pos    int
	built  bool
}

// rowAggState is one group of the row engine: boxed key values and one
// boxed accumulator per aggregate.
type rowAggState struct {
	groupKey []types.Value
	accs     []rowAcc
}

// rowAcc is one aggregate's running state in the row engine. DOUBLE
// sums fold left to right in arrival order (the vectorized engine folds
// per morsel; the differential fixtures use exactly representable
// values).
type rowAcc struct {
	count    int64
	sumI     int64
	sumF     float64
	best     types.Value // min/max
	bestSet  bool
	distinct map[string]struct{} // DISTINCT: the encoded value set
}

func (a *rowAgg) Open(tx *txn.Transaction) error {
	a.groups = make(map[string]*rowAggState)
	a.order = nil
	a.pos = 0
	a.built = false
	return a.child.Open(tx)
}

func (a *rowAgg) NextRow() ([]types.Value, error) {
	if !a.built {
		if err := a.build(); err != nil {
			return nil, err
		}
		a.built = true
	}
	if a.pos >= len(a.order) {
		return nil, nil
	}
	st := a.groups[a.order[a.pos]]
	a.pos++
	ng := len(a.node.GroupBy)
	out := make([]types.Value, ng+len(a.node.Aggs))
	copy(out, st.groupKey)
	for j, spec := range a.node.Aggs {
		out[ng+j] = finishRowAgg(spec, &st.accs[j])
	}
	return out, nil
}

func (a *rowAgg) build() error {
	ng := len(a.node.GroupBy)
	var sb strings.Builder
	for {
		row, err := a.child.NextRow()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		gvals := make([]types.Value, ng)
		sb.Reset()
		for i, g := range a.node.GroupBy {
			v, err := evalRow(g, row)
			if err != nil {
				return err
			}
			if !v.Null && v.Type == types.Double {
				// One group per equality class: -0 joins +0, every NaN
				// joins one NaN.
				v.F64 = math.Float64frombits(types.CanonF64Bits(v.F64))
			}
			gvals[i] = v
			if v.Null {
				sb.WriteString("\x00N")
			} else {
				sb.WriteString("\x01")
				sb.WriteString(v.String())
				sb.WriteString("\x00")
			}
		}
		key := sb.String()
		st, ok := a.groups[key]
		if !ok {
			st = a.newState(gvals)
			a.groups[key] = st
			a.order = append(a.order, key)
		}
		for j, spec := range a.node.Aggs {
			if err := updateAggRow(spec, &st.accs[j], row); err != nil {
				return err
			}
		}
	}
	if ng == 0 && len(a.order) == 0 {
		a.groups[""] = a.newState(nil)
		a.order = append(a.order, "")
	}
	return nil
}

func (a *rowAgg) newState(groupKey []types.Value) *rowAggState {
	st := &rowAggState{groupKey: groupKey, accs: make([]rowAcc, len(a.node.Aggs))}
	for j, spec := range a.node.Aggs {
		if spec.Distinct {
			st.accs[j].distinct = make(map[string]struct{})
		}
	}
	return st
}

func updateAggRow(spec plan.AggSpec, acc *rowAcc, row []types.Value) error {
	if spec.Arg == nil {
		acc.count++
		return nil
	}
	v, err := evalRow(spec.Arg, row)
	if err != nil {
		return err
	}
	if v.Null {
		return nil
	}
	if acc.distinct != nil {
		acc.distinct[string(types.EncodeValueKey(nil, v))] = struct{}{}
		return nil
	}
	switch spec.Func {
	case "count":
		acc.count++
	case "sum", "avg":
		acc.count++
		if v.Type == types.Double {
			acc.sumF += v.F64
		} else {
			acc.sumI += v.AsInt()
		}
	case "min", "max":
		if !acc.bestSet {
			acc.best, acc.bestSet = v, true
			return nil
		}
		c := types.Compare(v, acc.best)
		if (spec.Func == "max" && c > 0) || (spec.Func == "min" && c < 0) {
			acc.best = v
		}
	}
	return nil
}

func finishRowAgg(spec plan.AggSpec, acc *rowAcc) types.Value {
	if acc.distinct != nil {
		return finishRowDistinct(spec, acc.distinct)
	}
	switch spec.Func {
	case "count":
		return types.NewBigInt(acc.count)
	case "sum":
		if acc.count == 0 {
			return types.NewNull(spec.Type)
		}
		if spec.Type == types.Double {
			return types.NewDouble(acc.sumF)
		}
		return types.NewBigInt(acc.sumI)
	case "avg":
		if acc.count == 0 {
			return types.NewNull(types.Double)
		}
		total := acc.sumF
		if spec.Arg.Type() != types.Double {
			total = float64(acc.sumI)
		}
		return types.NewDouble(total / float64(acc.count))
	case "min", "max":
		if !acc.bestSet {
			return types.NewNull(spec.Type)
		}
		return acc.best
	default:
		return types.NewNull(spec.Type)
	}
}

// finishRowDistinct folds a DISTINCT aggregate's value set, walking the
// encoded values in sorted order so a DOUBLE sum does not depend on map
// iteration.
func finishRowDistinct(spec plan.AggSpec, set map[string]struct{}) types.Value {
	if spec.Func == "count" {
		return types.NewBigInt(int64(len(set)))
	}
	if len(set) == 0 {
		return types.NewNull(spec.Type)
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	argType := spec.Arg.Type()
	acc := rowAcc{}
	for _, k := range keys {
		v := types.DecodeValueKey(k, argType)
		acc.count++
		switch {
		case spec.Func == "min" || spec.Func == "max":
			if acc.bestSet {
				c := types.Compare(v, acc.best)
				if (spec.Func == "max" && c <= 0) || (spec.Func == "min" && c >= 0) {
					continue
				}
			}
			acc.best, acc.bestSet = v, true
		case argType == types.Double:
			acc.sumF += v.F64
		default:
			acc.sumI += v.AsInt()
		}
	}
	return finishRowAgg(spec, &acc)
}

func (a *rowAgg) Close() {
	a.groups = nil
	a.child.Close()
}

// filterRow reports whether cond is TRUE for row, evaluating it the way
// a filter selects rows: AND's right side only when its left is TRUE,
// OR's only when its left is not TRUE.
func filterRow(cond expr.Expr, row []types.Value) (bool, error) {
	if l, ok := cond.(*expr.Logic); ok {
		left, err := filterRow(l.L, row)
		if err != nil || left != (l.Op == expr.OpAnd) {
			return left, err
		}
		return filterRow(l.R, row)
	}
	v, err := evalRow(cond, row)
	return err == nil && !v.Null && v.Bool, err
}

// evalRow interprets a bound expression over one boxed row — the
// tuple-at-a-time evaluation the vectorized engine exists to avoid.
func evalRow(e expr.Expr, row []types.Value) (types.Value, error) {
	switch e := e.(type) {
	case *expr.Const:
		return e.Val, nil
	case *expr.ColRef:
		if e.Idx >= len(row) {
			return types.Value{}, fmt.Errorf("row engine: column %d out of range", e.Idx)
		}
		return row[e.Idx], nil
	case *expr.CastExpr:
		v, err := evalRow(e.X, row)
		if err != nil {
			return types.Value{}, err
		}
		return v.Cast(e.To)
	case *expr.Neg:
		v, err := evalRow(e.X, row)
		if err != nil || v.Null {
			return v, err
		}
		switch v.Type {
		case types.Double:
			return types.NewDouble(-v.F64), nil
		case types.Integer:
			return types.NewInt(int32(-v.I64)), nil
		default:
			return types.NewBigInt(-v.I64), nil
		}
	case *expr.Compare:
		l, err := evalRow(e.L, row)
		if err != nil {
			return types.Value{}, err
		}
		r, err := evalRow(e.R, row)
		if err != nil {
			return types.Value{}, err
		}
		if l.Null || r.Null {
			return types.NewNull(types.Boolean), nil
		}
		c := types.Compare(l, r)
		var out bool
		switch e.Op {
		case expr.CmpEq:
			out = c == 0
		case expr.CmpNe:
			out = c != 0
		case expr.CmpLt:
			out = c < 0
		case expr.CmpLe:
			out = c <= 0
		case expr.CmpGt:
			out = c > 0
		default:
			out = c >= 0
		}
		return types.NewBool(out), nil
	case *expr.Arith:
		l, err := evalRow(e.L, row)
		if err != nil {
			return types.Value{}, err
		}
		r, err := evalRow(e.R, row)
		if err != nil {
			return types.Value{}, err
		}
		if l.Null || r.Null {
			return types.NewNull(e.Typ), nil
		}
		if e.Typ == types.Double {
			lf, rf := l.AsFloat(), r.AsFloat()
			switch e.Op {
			case expr.OpAdd:
				return types.NewDouble(lf + rf), nil
			case expr.OpSub:
				return types.NewDouble(lf - rf), nil
			case expr.OpMul:
				return types.NewDouble(lf * rf), nil
			case expr.OpDiv:
				return types.NewDouble(lf / rf), nil
			default:
				return types.Value{}, fmt.Errorf("%% on DOUBLE")
			}
		}
		li, ri := l.AsInt(), r.AsInt()
		var out int64
		switch e.Op {
		case expr.OpAdd:
			out = li + ri
		case expr.OpSub:
			out = li - ri
		case expr.OpMul:
			out = li * ri
		case expr.OpDiv:
			if ri == 0 {
				return types.Value{}, fmt.Errorf("division by zero")
			}
			out = li / ri
		default:
			if ri == 0 {
				return types.Value{}, fmt.Errorf("modulo by zero")
			}
			out = li % ri
		}
		if e.Typ == types.Integer {
			return types.NewInt(int32(out)), nil
		}
		return types.NewBigInt(out), nil
	case *expr.Logic:
		l, err := evalRow(e.L, row)
		if err != nil {
			return types.Value{}, err
		}
		// The left side decides the row alone when it is FALSE under AND
		// or TRUE under OR; the right side is then not evaluated at all.
		if decides := e.Op == expr.OpOr; !l.Null && l.Bool == decides {
			return types.NewBool(decides), nil
		}
		r, err := evalRow(e.R, row)
		if err != nil {
			return types.Value{}, err
		}
		lb, rb := !l.Null && l.Bool, !r.Null && r.Bool
		if e.Op == expr.OpAnd {
			if (!l.Null && !lb) || (!r.Null && !rb) {
				return types.NewBool(false), nil
			}
			if l.Null || r.Null {
				return types.NewNull(types.Boolean), nil
			}
			return types.NewBool(true), nil
		}
		if lb || rb {
			return types.NewBool(true), nil
		}
		if l.Null || r.Null {
			return types.NewNull(types.Boolean), nil
		}
		return types.NewBool(false), nil
	case *expr.Not:
		v, err := evalRow(e.X, row)
		if err != nil || v.Null {
			return v, err
		}
		return types.NewBool(!v.Bool), nil
	case *expr.IsNull:
		v, err := evalRow(e.X, row)
		if err != nil {
			return types.Value{}, err
		}
		return types.NewBool(v.Null != e.Not), nil
	default:
		// Rare node types fall back to vectorized evaluation over a
		// single-row chunk.
		one := rowToChunk(row)
		v, err := e.Eval(one)
		if err != nil {
			return types.Value{}, err
		}
		return v.Get(0), nil
	}
}

func rowToChunk(row []types.Value) *vector.Chunk {
	c := &vector.Chunk{Cols: make([]*vector.Vector, len(row))}
	for i, v := range row {
		t := v.Type
		if t == types.Null || t == types.Invalid {
			t = types.BigInt
		}
		vec := vector.NewLen(t, 1)
		vec.Set(0, v)
		c.Cols[i] = vec
	}
	c.SetLen(1)
	return c
}
