package extsort

import (
	"fmt"
	"slices"
	"sort"
)

// Partitioned merge: instead of one consumer thread streaming the k-way
// merge, the cursors' key domain is split into disjoint ranges at
// sampled key quantiles and every range becomes its own Iterator —
// loser-tree merging private cursor clones over the shared runs and
// buffers — safe to drain from N goroutines concurrently. Concatenating
// the ranges in order reproduces the exact total order of the single
// merge, whatever boundaries the sample picked, so output stays
// bit-identical at every worker count.

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
	// endAt caps the cursor where next — a clone of the same sequence at
	// or after it — starts, and reports whether rows remain before it.
	endAt(next partCursor) bool
}

// PartitionMerge splits this merge into up to n disjoint key-range
// iterators that together stream the same total order Next would, each
// independently drainable (typically from its own goroutine). boundKeys
// is the key prefix ranges are cut on: the full sort keys for a plain
// merge, or a group prefix (e.g. window PARTITION BY columns) so that
// rows equal on the prefix — one window partition — never straddle two
// ranges. Being a prefix of the sort keys, its encoding is a prefix of
// the encoded keys, which is what sampling and seeks compare. A range's
// clone of a cursor ends where the next range's clone starts.
//
// It returns nil (and no error) when partitioning is not worthwhile:
// n < 2, an empty input, or sampled boundaries that collapse onto too
// few distinct prefix values (heavy skew). The parent iterator must not
// have been Next'ed; on success it is consumed — only its Close matters
// afterwards (it owns the files/buffers the ranges read), and it must
// be closed only after every range iterator is done.
func (it *Iterator) PartitionMerge(n int, boundKeys []Key) ([]*Iterator, error) {
	if n < 2 || it.handedOff || it.lt != nil || len(boundKeys) == 0 {
		return nil, nil // already streaming (or nothing to split)
	}
	nkeys := len(boundKeys)
	if nkeys > len(it.keys) || !slices.Equal(boundKeys, it.keys[:nkeys]) {
		return nil, fmt.Errorf("extsort: PartitionMerge bound keys are not a prefix of the sort keys")
	}
	cursors := it.cursors
	if cursors == nil {
		// In-memory mode partitions too: wrap the sorted buffer.
		if it.mem == nil || it.mem.len() == 0 || it.memPos > 0 {
			return nil, nil
		}
		cursors = []cursor{&memCursor{run: it.mem, end: it.mem.n}}
	}
	parts := make([]partCursor, 0, len(cursors))
	for _, c := range cursors {
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

	out := make([]*Iterator, bounds.Len()+1)
	for i := range out {
		out[i] = &Iterator{colTypes: it.colTypes, keys: it.keys, layout: l, shared: true}
	}
	starts := make([]partCursor, len(out))
	for _, pc := range parts {
		// Range i's clone starts past bound i-1 and ends where range i+1's
		// starts. A nil start means this range and all later ones are
		// empty for the cursor.
		clear(starts)
		for i := range starts {
			var err error
			if i == 0 {
				starts[i], err = pc.seekClone(nil, 0, nkeys)
			} else {
				starts[i], err = pc.seekClone(bounds, i-1, nkeys)
			}
			if err != nil {
				for _, c := range starts[:i] {
					c.close()
				}
				for _, r := range out {
					r.Close()
				}
				return nil, err
			}
			if starts[i] == nil {
				break
			}
		}
		for i, c := range starts {
			if c == nil {
				break
			}
			if i+1 < len(starts) && starts[i+1] != nil && !c.endAt(starts[i+1]) {
				c.close() // nothing of the cursor's sequence in this range
				continue
			}
			out[i].cursors = append(out[i].cursors, c)
		}
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
	clone := &memCursor{run: c.run, end: c.run.n}
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

func (c *memCursor) endAt(next partCursor) bool {
	c.end = next.(*memCursor).pos
	return c.pos < c.end
}

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
	clone := &runCursor{l: c.l, run: c.run, pool: c.pool, endChunk: len(c.run.offs)}
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

func (c *runCursor) endAt(next partCursor) bool {
	n := next.(*runCursor)
	c.endChunk, c.endRow = n.idx-1, n.row
	return c.idx-1 < c.endChunk || (c.idx-1 == c.endChunk && c.row < c.endRow)
}
