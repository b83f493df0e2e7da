// Package plan contains QuackDB's binder, logical query plan and
// rule-based optimizer. The binder resolves names and types against the
// catalog and produces vectorized expression trees; the optimizer pushes
// filters into scans, prunes unused columns (so scans touch — and load —
// only the columns a query needs, per paper §2), folds constants and
// extracts equi-join keys.
package plan

import (
	"fmt"
	"strings"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/types"
)

// ColInfo describes one output column of a plan node.
type ColInfo struct {
	Table string // table alias ("" for computed columns)
	Name  string
	Type  types.Type
}

// Node is a logical plan operator.
type Node interface {
	// Schema returns the node's output columns.
	Schema() []ColInfo
	// Explain renders one line for EXPLAIN.
	Explain() string
	// Children returns the input nodes. The slice may alias the node:
	// callers read it and never modify it.
	Children() []Node
}

// Release points a finished query's plan at the shells of the tables it
// names (catalog.Table.Shell): the plan explains itself as before and no
// longer keeps a table's data alive, even once the table is dropped. A
// session keeps its last plan for PRAGMA last_profile.
func Release(n Node) {
	switch n := n.(type) {
	case *ScanNode:
		n.Table = n.Table.Shell()
	case *InsertNode:
		n.Table = n.Table.Shell()
	case *UpdateNode:
		n.Table = n.Table.Shell()
	case *DeleteNode:
		n.Table = n.Table.Shell()
	case *JoinNode: // its Children allocates
		Release(n.Left)
		Release(n.Right)
		return
	}
	for _, c := range n.Children() {
		Release(c)
	}
}

// only returns the slice over a node's one child field, so Children
// allocates nothing.
func only(child *Node) []Node { return unsafe.Slice(child, 1) }

// ScanNode reads a base table. Columns selects and orders the table
// columns to emit; Filter (if set) is evaluated over the emitted columns
// inside the scan; WithRowID appends a BIGINT row-id column.
type ScanNode struct {
	Table      *catalog.Table
	TableAlias string
	Columns    []int
	Filter     expr.Expr
	WithRowID  bool
}

// Schema implements Node.
func (n *ScanNode) Schema() []ColInfo {
	out := make([]ColInfo, 0, len(n.Columns)+1)
	for _, c := range n.Columns {
		col := n.Table.Columns[c]
		out = append(out, ColInfo{Table: n.TableAlias, Name: col.Name, Type: col.Type})
	}
	if n.WithRowID {
		out = append(out, ColInfo{Table: n.TableAlias, Name: "rowid", Type: types.BigInt})
	}
	return out
}

// Explain implements Node.
func (n *ScanNode) Explain() string {
	s := fmt.Sprintf("SCAN %s", n.Table.Name)
	if len(n.Columns) < len(n.Table.Columns) {
		names := make([]string, len(n.Columns))
		for i, c := range n.Columns {
			names[i] = n.Table.Columns[c].Name
		}
		s += "(" + strings.Join(names, ", ") + ")"
	}
	if n.Filter != nil {
		s += " FILTER " + n.Filter.String()
	}
	return s
}

// Children implements Node.
func (n *ScanNode) Children() []Node { return nil }

// FilterNode keeps rows where Cond is TRUE.
type FilterNode struct {
	Child Node
	Cond  expr.Expr
}

// Schema implements Node.
func (n *FilterNode) Schema() []ColInfo { return n.Child.Schema() }

// Explain implements Node.
func (n *FilterNode) Explain() string { return "FILTER " + n.Cond.String() }

// Children implements Node.
func (n *FilterNode) Children() []Node { return only(&n.Child) }

// ProjectNode computes expressions over its child.
type ProjectNode struct {
	Child Node
	Exprs []expr.Expr
	Names []string
}

// Schema implements Node.
func (n *ProjectNode) Schema() []ColInfo {
	out := make([]ColInfo, len(n.Exprs))
	for i, e := range n.Exprs {
		out[i] = ColInfo{Name: n.Names[i], Type: e.Type()}
	}
	return out
}

// Explain implements Node.
func (n *ProjectNode) Explain() string {
	parts := make([]string, len(n.Exprs))
	for i, e := range n.Exprs {
		parts[i] = e.String()
	}
	return "PROJECT " + strings.Join(parts, ", ")
}

// Children implements Node.
func (n *ProjectNode) Children() []Node { return only(&n.Child) }

// JoinNode joins Left and Right. Equi-key expressions are evaluated over
// the respective child schemas; Extra (if set) is evaluated over the
// concatenated schema after key matching. A join without keys pairs
// every left row with every right row (cross + filter).
type JoinNode struct {
	Left, Right Node
	Type        JoinKind
	LeftKeys    []expr.Expr
	RightKeys   []expr.Expr
	Extra       expr.Expr
}

// JoinKind is the logical join flavor.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

func (k JoinKind) String() string {
	return [...]string{"INNER", "LEFT", "CROSS"}[k]
}

// Schema implements Node.
func (n *JoinNode) Schema() []ColInfo {
	l := n.Left.Schema()
	r := n.Right.Schema()
	out := make([]ColInfo, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

// Explain implements Node.
func (n *JoinNode) Explain() string {
	s := n.Type.String() + " JOIN"
	if len(n.LeftKeys) > 0 {
		pairs := make([]string, len(n.LeftKeys))
		for i := range n.LeftKeys {
			pairs[i] = n.LeftKeys[i].String() + " = " + n.RightKeys[i].String()
		}
		s += " ON " + strings.Join(pairs, " AND ")
	}
	if n.Extra != nil {
		s += " AND " + n.Extra.String()
	}
	return s
}

// Children implements Node.
func (n *JoinNode) Children() []Node { return []Node{n.Left, n.Right} }

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     string // count, sum, avg, min, max; count with Arg==nil is count(*)
	Arg      expr.Expr
	Distinct bool
	Type     types.Type
	Name     string
}

// AggNode groups by GroupBy and computes Aggs. Output schema: group
// columns first, then aggregates.
type AggNode struct {
	Child   Node
	GroupBy []expr.Expr
	Names   []string // names of group columns
	Aggs    []AggSpec
}

// Schema implements Node.
func (n *AggNode) Schema() []ColInfo {
	out := make([]ColInfo, 0, len(n.GroupBy)+len(n.Aggs))
	for i, g := range n.GroupBy {
		out = append(out, ColInfo{Name: n.Names[i], Type: g.Type()})
	}
	for _, a := range n.Aggs {
		out = append(out, ColInfo{Name: a.Name, Type: a.Type})
	}
	return out
}

// Explain implements Node.
func (n *AggNode) Explain() string {
	var parts []string
	for _, g := range n.GroupBy {
		parts = append(parts, g.String())
	}
	for _, a := range n.Aggs {
		parts = append(parts, a.Name)
	}
	return "AGGREGATE " + strings.Join(parts, ", ")
}

// Children implements Node.
func (n *AggNode) Children() []Node { return only(&n.Child) }

// SortKey is one ORDER BY key over the child's output schema.
type SortKey struct {
	Expr       expr.Expr
	Desc       bool
	NullsFirst bool
}

// SortNode orders its input.
type SortNode struct {
	Child Node
	Keys  []SortKey
}

// Schema implements Node.
func (n *SortNode) Schema() []ColInfo { return n.Child.Schema() }

// Explain implements Node.
func (n *SortNode) Explain() string {
	parts := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		dir := "ASC"
		if k.Desc {
			dir = "DESC"
		}
		parts[i] = k.Expr.String() + " " + dir
	}
	return "SORT " + strings.Join(parts, ", ")
}

// Children implements Node.
func (n *SortNode) Children() []Node { return only(&n.Child) }

// WindowFunc is one window function computation.
type WindowFunc struct {
	Func    string      // row_number, rank, dense_rank, lag, lead, count, sum, avg, min, max
	Arg     expr.Expr   // nil for row_number/rank/dense_rank/count(*)
	Offset  int64       // lag/lead distance
	Default types.Value // lag/lead default (typed NULL when unset)
	Type    types.Type
	Name    string
}

// FrameBound is one end of a window frame, resolved to row offsets.
type FrameBound struct {
	Unbounded bool
	Current   bool
	Offset    int64 // rows before (Preceding) or after the current row
	Preceding bool
}

// WindowFrame is the frame shared by every function of a WindowNode.
// When Set is false the SQL default applies: the whole partition
// without ORDER BY, RANGE UNBOUNDED PRECEDING..CURRENT ROW with it.
type WindowFrame struct {
	Set        bool
	Rows       bool // ROWS (true) or RANGE (false)
	Start, End FrameBound
}

// Bounds resolves the frame into a per-row [lo, hi] row interval
// (unclamped) over a partition of n rows in (order keys, input position)
// order; peerStart and peerEnd give every row's ORDER BY peer group. An
// offset reaching past the partition resolves to just outside it (-1 or
// n). The row-engine oracle resolves frames here; the vectorized window
// operator streams the same frames without materializing a partition, so
// the two implement frame semantics independently.
func (f WindowFrame) Bounds(n int, peerStart, peerEnd []int, hasOrder bool) func(i int) (lo, hi int) {
	if !f.Set {
		if !hasOrder {
			// Whole partition.
			return func(int) (int, int) { return 0, n - 1 }
		}
		// SQL default: RANGE UNBOUNDED PRECEDING .. CURRENT ROW — the
		// running frame including the current row's peers.
		return func(i int) (int, int) { return 0, peerEnd[i] }
	}
	resolve := func(b FrameBound, start bool) func(i int) int {
		switch {
		case b.Unbounded && b.Preceding:
			return func(int) int { return 0 }
		case b.Unbounded:
			return func(int) int { return n - 1 }
		case b.Current:
			if f.Rows {
				return func(i int) int { return i }
			}
			if start {
				return func(i int) int { return peerStart[i] }
			}
			return func(i int) int { return peerEnd[i] }
		case b.Preceding:
			// Offsets saturate at the partition edge instead of wrapping.
			off := int(b.Offset)
			return func(i int) int {
				if off > i {
					return -1
				}
				return i - off
			}
		default:
			off := int(b.Offset)
			return func(i int) int {
				if off > n-1-i {
					return n
				}
				return i + off
			}
		}
	}
	lo := resolve(f.Start, true)
	hi := resolve(f.End, false)
	return func(i int) (int, int) { return lo(i), hi(i) }
}

// WindowNode evaluates window functions sharing one OVER specification:
// rows are ordered by (PartitionBy, OrderBy) within each partition and
// every function's value is appended as a new column after the child's.
// Output rows are totally ordered by (partition keys, order keys, input
// position), which is what both the sequential and the parallel
// executors produce.
type WindowNode struct {
	Child       Node
	PartitionBy []expr.Expr
	OrderBy     []SortKey
	Frame       WindowFrame
	Funcs       []WindowFunc
}

// Schema implements Node.
func (n *WindowNode) Schema() []ColInfo {
	child := n.Child.Schema()
	out := make([]ColInfo, 0, len(child)+len(n.Funcs))
	out = append(out, child...)
	for _, f := range n.Funcs {
		out = append(out, ColInfo{Name: f.Name, Type: f.Type})
	}
	return out
}

// Explain implements Node.
func (n *WindowNode) Explain() string {
	var parts []string
	for _, f := range n.Funcs {
		parts = append(parts, f.Name)
	}
	s := "WINDOW " + strings.Join(parts, ", ")
	if len(n.PartitionBy) > 0 {
		keys := make([]string, len(n.PartitionBy))
		for i, e := range n.PartitionBy {
			keys[i] = e.String()
		}
		s += " PARTITION BY " + strings.Join(keys, ", ")
	}
	if len(n.OrderBy) > 0 {
		keys := make([]string, len(n.OrderBy))
		for i, k := range n.OrderBy {
			keys[i] = k.Expr.String()
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		s += " ORDER BY " + strings.Join(keys, ", ")
	}
	return s
}

// Children implements Node.
func (n *WindowNode) Children() []Node { return only(&n.Child) }

// LimitNode truncates its input. Negative Limit means "no limit".
type LimitNode struct {
	Child  Node
	Limit  int64
	Offset int64
}

// Schema implements Node.
func (n *LimitNode) Schema() []ColInfo { return n.Child.Schema() }

// Explain implements Node.
func (n *LimitNode) Explain() string {
	if n.Offset > 0 {
		return fmt.Sprintf("LIMIT %d OFFSET %d", n.Limit, n.Offset)
	}
	return fmt.Sprintf("LIMIT %d", n.Limit)
}

// Children implements Node.
func (n *LimitNode) Children() []Node { return only(&n.Child) }

// UnionAllNode concatenates same-schema children.
type UnionAllNode struct {
	Inputs []Node
}

// Schema implements Node.
func (n *UnionAllNode) Schema() []ColInfo { return n.Inputs[0].Schema() }

// Explain implements Node.
func (n *UnionAllNode) Explain() string { return "UNION ALL" }

// Children implements Node.
func (n *UnionAllNode) Children() []Node { return n.Inputs }

// ValuesNode produces literal rows.
type ValuesNode struct {
	Cols []ColInfo
	Rows [][]types.Value
}

// Schema implements Node.
func (n *ValuesNode) Schema() []ColInfo { return n.Cols }

// Explain implements Node.
func (n *ValuesNode) Explain() string { return fmt.Sprintf("VALUES (%d rows)", len(n.Rows)) }

// Children implements Node.
func (n *ValuesNode) Children() []Node { return nil }

// InsertNode appends its child's rows into Table. The child schema is
// already aligned (casts and NULL defaults inserted by the binder).
type InsertNode struct {
	Table *catalog.Table
	Child Node
}

// Schema implements Node.
func (n *InsertNode) Schema() []ColInfo {
	return []ColInfo{{Name: "count", Type: types.BigInt}}
}

// Explain implements Node.
func (n *InsertNode) Explain() string { return "INSERT INTO " + n.Table.Name }

// Children implements Node.
func (n *InsertNode) Children() []Node { return only(&n.Child) }

// UpdateNode updates SetCols of Table. Child is a scan (with rowid last)
// that already applied the WHERE filter; SetExprs are evaluated over the
// child's output.
type UpdateNode struct {
	Table    *catalog.Table
	Child    Node
	SetCols  []int
	SetExprs []expr.Expr
}

// Schema implements Node.
func (n *UpdateNode) Schema() []ColInfo {
	return []ColInfo{{Name: "count", Type: types.BigInt}}
}

// Explain implements Node.
func (n *UpdateNode) Explain() string {
	parts := make([]string, len(n.SetCols))
	for i, c := range n.SetCols {
		parts[i] = n.Table.Columns[c].Name + " = " + n.SetExprs[i].String()
	}
	return "UPDATE " + n.Table.Name + " SET " + strings.Join(parts, ", ")
}

// Children implements Node.
func (n *UpdateNode) Children() []Node { return only(&n.Child) }

// DeleteNode deletes the rows produced by its child scan (rowid last).
type DeleteNode struct {
	Table *catalog.Table
	Child Node
}

// Schema implements Node.
func (n *DeleteNode) Schema() []ColInfo {
	return []ColInfo{{Name: "count", Type: types.BigInt}}
}

// Explain implements Node.
func (n *DeleteNode) Explain() string { return "DELETE FROM " + n.Table.Name }

// Children implements Node.
func (n *DeleteNode) Children() []Node { return only(&n.Child) }

// ExplainTree renders a plan as an indented tree.
func ExplainTree(n Node) string {
	var sb strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Explain())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}
