package extsort

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/vector"
)

// Partitioned merge: instead of one consumer thread streaming the k-way
// merge, the serial merge's rows are split into consecutive row ranges
// cut at sampled key quantiles, and every range becomes its own Iterator
// — loser-tree merging private cursor clones over the shared runs and
// buffers — safe to drain from N goroutines concurrently. A range is
// fixed by its first row and its row count, so concatenating the ranges
// in order reproduces the single merge exactly, whatever boundaries the
// sample picked, and output stays bit-identical at every worker count.

// maxSamplesPerCursor bounds the quantile sample: per run at most this
// many evenly spaced rows of its boundary footer, per in-memory buffer
// this many evenly spaced rows.
const maxSamplesPerCursor = 32

// partCursor is a cursor the partitioned merge can sample and clone.
type partCursor interface {
	cursor
	// sampleInto appends up to max evenly spaced rows to the samples.
	sampleInto(into *keyedRows, max int) error
	// seekClone returns a fresh cursor positioned at the first row that
	// compares strictly greater than bound row boundRow on its first
	// nkeys keys (at the start when bound is nil). Returns nil when the
	// remaining range is empty.
	seekClone(bound *keyedRows, boundRow, nkeys int) (partCursor, error)
	// rank is the index of the current row in the sequence, rows the
	// sequence's length.
	rank() int
	rows() int
}

// PartitionMerge splits this merge into up to n consecutive row-range
// iterators that together stream the same total order Next would, each
// independently drainable (typically from its own goroutine). boundKeys
// is the key prefix ranges are cut on: the full sort keys for a plain
// merge, or a group prefix (e.g. window PARTITION BY columns) so that
// rows equal on the prefix — one window partition — never straddle two
// ranges. Being a prefix of the sort keys, its encoding is a prefix of
// the encoded keys, which is what sampling and seeks compare.
//
// A cut's rank in the serial merge is the sum of its clones' positions.
// Under the full sort keys every row boundary is a key boundary, so each
// cut moves up to a multiple of ChunkCapacity: the ranges' chunks are
// then the serial merge's chunks. A range's clones start at its key cut
// and skip the rows up to its row cut; it emits the rows up to the next
// row cut and stops on its last row.
//
// It returns nil (and no error) when partitioning is not worthwhile:
// n < 2, an empty input, or cuts that leave fewer than two non-empty
// ranges (heavy skew, or little more than a chunk of rows). The parent
// iterator must not have been Next'ed; on success it is consumed — only
// its Close matters afterwards (it owns the files/buffers the ranges
// read), and it must be closed only after every range iterator is done.
func (it *Iterator) PartitionMerge(n int, boundKeys []Key) ([]*Iterator, error) {
	if n < 2 || it.handedOff || it.lt != nil || len(boundKeys) == 0 {
		return nil, nil // already streaming (or nothing to split)
	}
	nkeys := len(boundKeys)
	if nkeys > len(it.keys) || !slices.Equal(boundKeys, it.keys[:nkeys]) {
		return nil, fmt.Errorf("extsort: PartitionMerge bound keys are not a prefix of the sort keys")
	}
	parts := make([]partCursor, 0, len(it.cursors))
	for _, c := range it.cursors {
		pc, ok := c.(partCursor)
		if !ok {
			return nil, nil
		}
		parts = append(parts, pc)
	}

	// Sample rows, order them by the full sort keys, and take the n-1
	// quantiles as range boundaries, dropping boundaries that repeat
	// the previous one's prefix (duplicate-heavy keys shrink the fan).
	l := it.layout
	samples := newKeyedRows(l, it.colTypes)
	for _, pc := range parts {
		if err := pc.sampleInto(samples, maxSamplesPerCursor); err != nil {
			return nil, err
		}
	}
	ns := samples.Len()
	if ns < 2 {
		return nil, nil
	}
	order := make([]int, ns)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return l.compare(samples.key(a), samples.chunk, a, samples.key(b), samples.chunk, b, len(l.cols))
	})
	bounds := newKeyedRows(l, it.colTypes)
	for i := 1; i < n; i++ {
		cand := order[i*ns/n]
		if last := bounds.Len() - 1; last >= 0 &&
			l.compare(bounds.key(last), bounds.chunk, last, samples.key(cand), samples.chunk, cand, nkeys) == 0 {
			continue
		}
		bounds.add(samples.chunk, cand, samples.key(cand))
	}
	if bounds.Len() == 0 {
		return nil, nil
	}

	// Clone every cursor at every key cut into its range; a cut's rank
	// sums its clones' positions (a cursor's length past its end).
	ranges := make([]*Iterator, bounds.Len()+1)
	for i := range ranges {
		ranges[i] = &Iterator{colTypes: it.colTypes, keys: it.keys, layout: l, shared: true}
	}
	ranks := make([]int, len(ranges)+1)
	ranks[len(ranges)] = it.left
	for _, pc := range parts {
		var c partCursor
		var err error
		for i, r := range ranges {
			switch {
			case i == 0:
				c, err = pc.seekClone(nil, 0, nkeys)
			case c != nil: // a cursor past its end at one cut is at all later ones
				c, err = pc.seekClone(bounds, i-1, nkeys)
			}
			if err != nil {
				for _, r := range ranges {
					r.Close()
				}
				return nil, err
			}
			if c == nil {
				ranks[i] += pc.rows()
				continue
			}
			ranks[i] += c.rank()
			r.cursors = append(r.cursors, c)
		}
	}
	cuts := slices.Clone(ranks)
	if nkeys == len(it.keys) {
		for i, r := range cuts {
			cuts[i] = min(it.left, (r+vector.ChunkCapacity-1)/vector.ChunkCapacity*vector.ChunkCapacity)
		}
	}
	out := ranges[:0]
	for i, r := range ranges {
		if r.skip, r.left = cuts[i]-ranks[i], cuts[i+1]-cuts[i]; r.left == 0 {
			r.Close()
			continue
		}
		out = append(out, r)
	}
	if len(out) < 2 {
		for _, r := range out {
			r.Close()
		}
		return nil, nil
	}
	it.handedOff = true
	return out, nil
}

// pastBound reports whether c's current row sorts strictly after bound
// row boundRow on the first nkeys keys.
func pastBound(c cursor, bound *keyedRows, boundRow, nkeys int) bool {
	return bound.l.compare(c.key(), c.chunk(), c.rowIdx(), bound.key(boundRow), bound.chunk, boundRow, nkeys) > 0
}

// sampleStride spaces at most max samples evenly over n positions.
func sampleStride(n, max int) int {
	return (n + max - 1) / max
}

// ---- memCursor partitioning ----

func (c *memCursor) sampleInto(into *keyedRows, max int) error {
	n := c.run.len()
	for i, stride := 0, sampleStride(n, max); i < n; i += stride {
		ch, r := c.run.ref(i)
		into.add(ch, r, c.run.key(i))
	}
	return nil
}

func (c *memCursor) seekClone(bound *keyedRows, boundRow, nkeys int) (partCursor, error) {
	clone := &memCursor{run: c.run}
	if bound != nil {
		// First row strictly past the boundary prefix; the run is sorted
		// by the full keys and the bound keys are a prefix of them, so the
		// predicate is monotone.
		clone.pos = sort.Search(c.run.len(), func(p int) bool {
			clone.pos = p
			return pastBound(clone, bound, boundRow, nkeys)
		})
	}
	if clone.pos >= c.run.len() {
		return nil, nil
	}
	return clone, nil
}

func (c *memCursor) rank() int { return c.pos }
func (c *memCursor) rows() int { return c.run.n }

// ---- runCursor partitioning ----

func (c *runCursor) sampleInto(into *keyedRows, max int) error {
	// Spill-time boundary footer: sample i is chunk i's first row, so the
	// stride walks memory instead of decoding run chunks.
	foot := c.run.samples
	for i, stride := 0, sampleStride(foot.Len(), max); i < foot.Len(); i += stride {
		into.add(foot.chunk, i, foot.key(i))
	}
	return nil
}

func (c *runCursor) seekClone(bound *keyedRows, boundRow, nkeys int) (partCursor, error) {
	clone := &runCursor{l: c.l, run: c.run, pool: c.pool}
	if bound != nil {
		// Binary search the chunk index: the last chunk whose first row is
		// not past the boundary may still hold in-range rows; later chunks
		// start past it. The boundary footer answers each probe from memory.
		foot := c.run.samples
		start := sort.Search(foot.Len(), func(i int) bool {
			return c.l.compare(foot.key(i), foot.chunk, i, bound.key(boundRow), bound.chunk, boundRow, nkeys) > 0
		})
		clone.idx = max(start-1, 0)
	}
	if err := clone.load(); err != nil {
		clone.close()
		return nil, err
	}
	// Skip the rows at or before the boundary; at most one chunk plus
	// the already-past-boundary chunks the search ruled out.
	for bound != nil && clone.cur != nil && !pastBound(clone, bound, boundRow, nkeys) {
		if err := clone.advance(); err != nil {
			clone.close()
			return nil, err
		}
	}
	if clone.cur == nil {
		return nil, nil
	}
	return clone, nil
}

// rank counts on the run's chunks being full but the last.
func (c *runCursor) rank() int { return (c.idx-1)*vector.ChunkCapacity + c.row }
func (c *runCursor) rows() int { return c.run.rows }
