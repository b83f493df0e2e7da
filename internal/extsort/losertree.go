package extsort

import "bytes"

// loserTree is a tournament tree over the merge cursors: tree[0] holds
// the overall winner (the cursor with the smallest current row) and
// every internal node 1..k-1 holds the loser of the match played there.
// Emitting a row replays only the advanced cursor's root path — O(log k)
// comparisons per row instead of the O(k) linear min-scan, which is the
// difference between the merge phase scaling with fan-in (workers ×
// runs-per-worker) and not.
//
// Layout: the implicit complete binary tree with k external nodes at
// conceptual indexes k..2k-1 and internal nodes 1..k-1; external node i
// (cursor i) enters at parent (k+i)/2. This works for any k ≥ 1.
//
// Ties break toward the lower cursor index, matching the linear scan
// the tree replaces (and the registration order of producers), so merge
// output is byte-identical to the previous implementation even without
// the engine's hidden tiebreak key. Exhausted cursors lose every match
// and sink to the leaves.
//
// Matches compare the cursors' encoded keys; cur caches each cursor's
// current key (nil once exhausted), refreshed when the cursor advances,
// so a match is one bytes.Compare with no cursor calls unless a VARCHAR
// prefix ties.
type loserTree struct {
	cursors []cursor
	l       *keyLayout
	cur     [][]byte
	tree    []int // tree[0] = winner leaf; tree[1..k-1] = loser leaves
}

func newLoserTree(cursors []cursor, l *keyLayout) *loserTree {
	k := len(cursors)
	t := &loserTree{cursors: cursors, l: l, cur: make([][]byte, k), tree: make([]int, k)}
	for i := range cursors {
		t.refresh(i)
	}
	t.init()
	return t
}

// refresh re-reads cursor i's current key.
func (t *loserTree) refresh(i int) {
	t.cur[i] = nil
	if c := t.cursors[i]; c.chunk() != nil {
		t.cur[i] = c.key()
	}
}

// init plays the full tournament bottom-up.
func (t *loserTree) init() {
	k := len(t.cursors)
	if k == 0 {
		return
	}
	winners := make([]int, 2*k)
	for i := 0; i < k; i++ {
		winners[k+i] = i
	}
	for m := k - 1; m >= 1; m-- {
		a, b := winners[2*m], winners[2*m+1]
		if t.beats(a, b) {
			winners[m], t.tree[m] = a, b
		} else {
			winners[m], t.tree[m] = b, a
		}
	}
	t.tree[0] = winners[1]
}

// winner returns the index of the cursor holding the smallest current
// row, or -1 when every cursor is exhausted.
func (t *loserTree) winner() int {
	if len(t.tree) == 0 {
		return -1
	}
	w := t.tree[0]
	if t.cur[w] == nil {
		return -1
	}
	return w
}

// fix replays leaf i's path to the root after its cursor advanced:
// at every internal node the stored loser challenges the ascending
// winner; the loser of each match stays, the winner moves up.
//
//quack:hotpath
func (t *loserTree) fix(i int) {
	t.refresh(i)
	k := len(t.cursors)
	w := i
	for m := (k + i) / 2; m >= 1; m /= 2 {
		if t.beats(t.tree[m], w) {
			t.tree[m], w = w, t.tree[m]
		}
	}
	t.tree[0] = w
}

// beats reports whether cursor a wins (sorts before) cursor b.
//
//quack:hotpath
func (t *loserTree) beats(a, b int) bool {
	ka, kb := t.cur[a], t.cur[b]
	if ka == nil {
		return false
	}
	if kb == nil {
		return true
	}
	var c int
	if len(t.l.strs) == 0 {
		c = bytes.Compare(ka, kb)
	} else {
		ca, cb := t.cursors[a], t.cursors[b]
		c = t.l.compare(ka, ca.chunk(), ca.rowIdx(), kb, cb.chunk(), cb.rowIdx(), len(t.l.cols))
	}
	return c < 0 || (c == 0 && a < b)
}
