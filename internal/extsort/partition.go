package extsort

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/vector"
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
	seekClone(bound *keyedRows, boundRow, nkeys int) (cursor, error)
}

// PartitionMerge splits this merge into up to n disjoint key-range
// iterators that together stream the same total order Next would, each
// independently drainable (typically from its own goroutine). boundKeys
// is the key prefix ranges are cut on: the full sort keys for a plain
// merge, or a group prefix (e.g. window PARTITION BY columns) so that
// rows equal on the prefix — one window partition — never straddle two
// ranges. Being a prefix of the sort keys, its encoding is a prefix of
// the encoded keys, which is what sampling, seeks and range caps compare.
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
		cursors = []cursor{&memCursor{run: it.mem}}
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

	out := make([]*Iterator, 0, bounds.Len()+1)
	for i := 0; i <= bounds.Len(); i++ {
		rangeIt := &Iterator{colTypes: it.colTypes, keys: it.keys, layout: l, shared: true}
		for _, pc := range parts {
			var c cursor
			var err error
			if i == 0 {
				c, err = pc.seekClone(nil, 0, nkeys)
			} else {
				c, err = pc.seekClone(bounds, i-1, nkeys)
			}
			if err != nil {
				for _, done := range out {
					done.Close()
				}
				rangeIt.Close()
				return nil, err
			}
			if c == nil {
				continue
			}
			if i < bounds.Len() {
				rc := &rangeCursor{inner: c, bound: bounds, boundRow: i, nkeys: nkeys}
				rc.check()
				if rc.done {
					// Clone landed past this range's cap; drop it and
					// release whatever chunk it pinned.
					rc.close()
					continue
				}
				c = rc
			}
			rangeIt.cursors = append(rangeIt.cursors, c)
		}
		out = append(out, rangeIt)
	}
	it.handedOff = true
	return out, nil
}

// pastBound reports whether c's current row sorts strictly after bound
// row boundRow on the first nkeys keys.
func pastBound(c cursor, bound *keyedRows, boundRow, nkeys int) bool {
	return bound.l.compare(c.key(), c.chunk(), c.rowIdx(), bound.key(boundRow), bound.chunk, boundRow, nkeys) > 0
}

// rangeCursor caps a cursor at an upper boundary row (inclusive of rows
// comparing equal on the bound keys): past it the cursor reads as
// exhausted, leaving the remaining rows to the next range's own clones.
type rangeCursor struct {
	inner    cursor
	bound    *keyedRows
	boundRow int
	nkeys    int
	done     bool
}

func (c *rangeCursor) check() {
	if !c.done && (c.inner.chunk() == nil || pastBound(c.inner, c.bound, c.boundRow, c.nkeys)) {
		c.done = true
	}
}

func (c *rangeCursor) chunk() *vector.Chunk {
	if c.done {
		return nil
	}
	return c.inner.chunk()
}

func (c *rangeCursor) rowIdx() int { return c.inner.rowIdx() }
func (c *rangeCursor) key() []byte { return c.inner.key() }

func (c *rangeCursor) advance() error {
	if c.done {
		return nil
	}
	if err := c.inner.advance(); err != nil {
		return err
	}
	c.check()
	return nil
}

func (c *rangeCursor) close() { c.inner.close() }

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

func (c *memCursor) seekClone(bound *keyedRows, boundRow, nkeys int) (cursor, error) {
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

func (c *runCursor) seekClone(bound *keyedRows, boundRow, nkeys int) (cursor, error) {
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
