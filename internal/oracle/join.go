package oracle

import (
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
)

// rowJoin is the reference join: a nested loop over the materialized
// right side, one boxed row pair at a time. For every left row, in
// order, it pairs every right row, in order, whose keys are equal and
// non-NULL and for which Extra is TRUE; a LEFT join pads a left row
// nothing paired with. That is the row order of the vectorized hash
// join (probe order, then build order) with none of its machinery.
type rowJoin struct {
	left, right rowIterator
	node        *plan.JoinNode

	rrows, rkeys [][]types.Value
	lrow, lkeys  []types.Value
	rpos         int
	matched      bool
}

func (j *rowJoin) Open(tx *txn.Transaction) error {
	if err := j.right.Open(tx); err != nil {
		return err
	}
	for {
		row, err := j.right.NextRow()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		keys, err := evalRowAll(j.node.RightKeys, row)
		if err != nil {
			return err
		}
		j.rrows, j.rkeys = append(j.rrows, row), append(j.rkeys, keys)
	}
	return j.left.Open(tx)
}

func evalRowAll(exprs []expr.Expr, row []types.Value) ([]types.Value, error) {
	out := make([]types.Value, len(exprs))
	for i, e := range exprs {
		v, err := evalRow(e, row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (j *rowJoin) NextRow() ([]types.Value, error) {
	for {
		if j.lrow == nil {
			row, err := j.left.NextRow()
			if err != nil || row == nil {
				return nil, err
			}
			if j.lkeys, err = evalRowAll(j.node.LeftKeys, row); err != nil {
				return nil, err
			}
			j.lrow, j.rpos, j.matched = row, 0, false
		}
		for j.rpos < len(j.rrows) {
			rrow, rkeys := j.rrows[j.rpos], j.rkeys[j.rpos]
			j.rpos++
			if !keysJoin(j.lkeys, rkeys) {
				continue
			}
			out := append(append([]types.Value(nil), j.lrow...), rrow...)
			if j.node.Extra != nil {
				keep, err := filterRow(j.node.Extra, out)
				if err != nil {
					return nil, err
				}
				if !keep {
					continue
				}
			}
			j.matched = true
			return out, nil
		}
		lrow := j.lrow
		j.lrow = nil
		if j.node.Type == plan.JoinLeft && !j.matched {
			out := append([]types.Value(nil), lrow...)
			for _, c := range j.node.Right.Schema() {
				out = append(out, types.NewNull(c.Type))
			}
			return out, nil
		}
	}
}

// keysJoin: every key pair equal under the engine's comparison (-0.0
// equals 0.0, NaN equals NaN) and neither side NULL.
func keysJoin(l, r []types.Value) bool {
	for i := range l {
		if l[i].Null || r[i].Null || types.Compare(l[i], r[i]) != 0 {
			return false
		}
	}
	return true
}

func (j *rowJoin) Close() {
	j.left.Close()
	j.right.Close()
}
