package extsort

import (
	"bytes"
	"encoding/binary"
	"slices"

	"repro/internal/vector"
)

// insertionCutoff is the bucket size below which the radix pass hands
// over to insertion sort: a 256-way histogram over a few dozen rows
// costs more than comparing them.
const insertionCutoff = 24

// runSorter sorts the encoded rows of one run in place: an MSD radix
// (American flag) pass per key byte, moving whole rows so each bucket
// stays contiguous for the next byte, with insertion sort below
// insertionCutoff. Every row ends in its unique arrival ordinal, so the
// bytes alone are a total order — except past a VARCHAR segment whose
// prefix overflowed, where a bucket is finished by a comparison sort
// that reads the strings.
type runSorter struct {
	l         *keyLayout
	rows      []byte          // n * l.stride encoded rows
	chunks    []*vector.Chunk // the buffered chunks the ordinals point into
	hand, tmp []byte          // two rows of scratch for moves
}

func (rs *runSorter) sort() {
	scratch := make([]byte, 2*rs.l.stride)
	rs.hand, rs.tmp = scratch[:rs.l.stride], scratch[rs.l.stride:]
	rs.radix(0, len(rs.rows)/rs.l.stride, 0)
}

func (rs *runSorter) row(i int) []byte {
	s := rs.l.stride
	return rs.rows[i*s : (i+1)*s : (i+1)*s]
}

// radix sorts rows [lo,hi), which agree on bytes [0,depth).
//
//quack:hotpath
func (rs *runSorter) radix(lo, hi, depth int) {
	stride := rs.l.stride
	for hi-lo > insertionCutoff {
		// Just past a VARCHAR segment the bucket overflowed, the bytes that
		// follow only order rows whose full strings are equal: a comparison
		// sort finishes the bucket.
		if rs.ambiguous(lo, depth) {
			rs.compareSort(lo, hi, depth)
			return
		}
		// Skip every byte the bucket agrees on in one pass (NULL bytes, the
		// high bytes of small integers) instead of a histogram pass each,
		// stopping at the end of the next VARCHAR segment for that check.
		stop := rs.nextStop(depth)
		if depth = rs.commonPrefix(lo, hi, depth, stop); depth == stop {
			continue
		}
		// end[b] becomes the end of bucket b, next[b] its fill position.
		var end, next [256]int
		for p := lo*stride + depth; p < hi*stride; p += stride {
			end[rs.rows[p]]++
		}
		pos := lo
		for b := range end {
			next[b] = pos
			pos += end[b]
			end[b] = pos
		}
		// American flag permutation: lift the row at a bucket's fill
		// position and follow the displacements — each lifted row goes
		// straight to its own bucket, lifting the row it lands on — until
		// one comes up that belongs where the first was taken.
		for b := range end {
			for next[b] < end[b] {
				home := rs.row(next[b])
				d := int(home[depth])
				if d == b {
					next[b]++
					continue
				}
				copy(rs.hand, home)
				for d != b {
					dst := rs.row(next[d])
					next[d]++
					copy(rs.tmp, dst)
					copy(dst, rs.hand)
					rs.hand, rs.tmp = rs.tmp, rs.hand
					d = int(rs.hand[depth])
				}
				copy(home, rs.hand)
				next[b]++
			}
		}
		start := lo
		for b := range end {
			if end[b]-start > 1 {
				rs.radix(start, end[b], depth+1)
			}
			start = end[b]
		}
		return
	}
	rs.insertion(lo, hi, depth)
}

// nextStop is the end of the first VARCHAR segment past depth, or the
// row's end.
func (rs *runSorter) nextStop(depth int) int {
	for _, si := range rs.l.strs {
		if end := rs.l.cols[si].end; end > depth {
			return end
		}
	}
	return rs.l.stride
}

// commonPrefix extends depth over the bytes rows [lo,hi) all share, up
// to stop. A bucket that differs at depth costs a few rows' reads.
//
//quack:hotpath
func (rs *runSorter) commonPrefix(lo, hi, depth, stop int) int {
	first := rs.row(lo)
	for i := lo + 1; i < hi && stop > depth; i++ {
		r := rs.row(i)
		k := depth
		for k < stop && r[k] == first[k] {
			k++
		}
		stop = k
	}
	return stop
}

// ambiguous reports whether depth sits just past a VARCHAR segment that
// the bucket starting at row lo (equal on every byte before depth)
// overflowed.
func (rs *runSorter) ambiguous(lo, depth int) bool {
	for _, si := range rs.l.strs {
		k := &rs.l.cols[si]
		if k.end == depth {
			row := rs.row(lo)
			return row[depth-1] == k.longMark() && row[k.off] == 1
		}
	}
	return false
}

// cmp orders two encoded rows that agree on bytes [0,depth).
//
//quack:hotpath
func (rs *runSorter) cmp(a, b []byte, depth int) int {
	if len(rs.l.strs) == 0 {
		return bytes.Compare(a[depth:], b[depth:])
	}
	w := rs.l.width
	oa, ob := binary.BigEndian.Uint64(a[w:]), binary.BigEndian.Uint64(b[w:])
	c := rs.l.compare(a[:w], rs.chunks[oa>>32], int(uint32(oa)), b[:w], rs.chunks[ob>>32], int(uint32(ob)), len(rs.l.cols))
	if c == 0 && oa != ob {
		c = -1
		if oa > ob {
			c = 1
		}
	}
	return c
}

//quack:hotpath
func (rs *runSorter) insertion(lo, hi, depth int) {
	for i := lo + 1; i < hi; i++ {
		if rs.cmp(rs.row(i), rs.row(i-1), depth) >= 0 {
			continue
		}
		copy(rs.hand, rs.row(i))
		j := i
		for ; j > lo && rs.cmp(rs.hand, rs.row(j-1), depth) < 0; j-- {
			copy(rs.row(j), rs.row(j-1))
		}
		copy(rs.row(j), rs.hand)
	}
}

// compareSort finishes a bucket the bytes cannot: it sorts row indexes
// by the full comparator and then applies the permutation in place.
func (rs *runSorter) compareSort(lo, hi, depth int) {
	perm := make([]int32, hi-lo)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return rs.cmp(rs.row(lo+int(a)), rs.row(lo+int(b)), depth) })
	// perm[i] is the row that belongs at position i; walk each cycle once,
	// marking placed positions with -1.
	for i := range perm {
		if perm[i] < 0 || int(perm[i]) == i {
			continue
		}
		copy(rs.hand, rs.row(lo+i))
		j := i
		for {
			src := int(perm[j])
			perm[j] = -1
			if src == i {
				copy(rs.row(lo+j), rs.hand)
				break
			}
			copy(rs.row(lo+j), rs.row(lo+src))
			j = src
		}
	}
}
