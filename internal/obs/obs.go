// Package obs is the engine-wide metrics registry: counters, gauges and
// histograms an embedded database uses to explain itself. There is no
// server process a user could attach an external profiler to, so the
// engine keeps its own telemetry and surfaces it through the public API
// (quack.DB.Metrics), PRAGMA metrics, and the bench tooling.
//
// Everything here is lock-free on the write path: plain atomic counters
// for ordinary sites, cache-line-sharded counters for the hottest ones,
// and histograms with power-of-two nanosecond buckets whose Observe is
// two atomic adds. The registry itself takes a mutex only at
// registration and snapshot time.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// numShards is the stripe count of a ShardedCounter. Power of two so
// the shard pick is a mask, sized for the handful of cores an embedded
// engine typically owns.
const numShards = 8

type shard struct {
	v atomic.Int64
	_ [56]byte // pad to a cache line: stripes must not false-share
}

// ShardedCounter is a counter striped across cache lines for hot paths
// where many workers increment concurrently (per-morsel, per-segment
// sites). Add picks a stripe from the address of a stack local, which
// is stable per goroutine for the life of a call chain — contention
// spreads without any goroutine-id lookup.
type ShardedCounter struct{ shards [numShards]shard }

// Add increments the counter by n. The stripe index hashes the address
// of a stack local — goroutine stacks are disjoint, so concurrent
// callers spread across stripes; the pointer is never dereferenced.
func (c *ShardedCounter) Add(n int64) {
	var probe byte
	i := (uintptr(unsafe.Pointer(&probe)) >> 10) & (numShards - 1)
	c.shards[i].v.Add(n)
}

// Load sums the stripes. Concurrent Adds may or may not be included —
// the usual counter-snapshot semantics.
func (c *ShardedCounter) Load() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// histBuckets covers [1ns, ~18min) in power-of-two buckets; bucket i
// holds observations with bit length i (i.e. values in [2^(i-1), 2^i)).
const histBuckets = 41

// Histogram records nanosecond durations in exponential buckets. The
// write path is two atomic adds; quantiles are computed at snapshot
// time and are conservative (they report a bucket upper bound).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func histBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[histBucket(ns)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed durations, in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns an upper bound of the q-quantile (0 < q <= 1) in
// nanoseconds: the upper edge of the bucket where the cumulative count
// crosses q. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == 0 {
				return 0
			}
			return int64(1) << i // upper bound of bucket i: [2^(i-1), 2^i)
		}
	}
	return int64(1) << (histBuckets - 1)
}

// Sample is one named metric value in a snapshot.
type Sample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// item is one registered metric: a scalar read function or a histogram
// (which expands to _count/_sum_ns/_p50_ns/_p99_ns samples).
type item struct {
	name string
	read func() int64
	hist *Histogram
}

// Registry holds named metrics. Registration panics on duplicate names
// (a programming error); reads are cheap and snapshots are sorted by
// name so output is deterministic.
type Registry struct {
	mu    sync.Mutex
	names map[string]struct{}
	items []item
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func (r *Registry) register(it item) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[it.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", it.name))
	}
	r.names[it.name] = struct{}{}
	r.items = append(r.items, it)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(item{name: name, read: c.Load})
	return c
}

// Sharded registers and returns a new sharded counter for hot paths.
func (r *Registry) Sharded(name string) *ShardedCounter {
	c := &ShardedCounter{}
	r.register(item{name: name, read: c.Load})
	return c
}

// Gauge registers a metric whose value is computed at snapshot time —
// the bridge for state the engine already tracks elsewhere (pool bytes,
// queue depths, existing atomic counters).
func (r *Registry) Gauge(name string, read func() int64) {
	if read == nil {
		panic("obs: nil gauge reader")
	}
	r.register(item{name: name, read: read})
}

// Histogram registers and returns a new histogram. It contributes four
// samples to snapshots: name_count, name_sum_ns, name_p50_ns and
// name_p99_ns.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.register(item{name: name, hist: h})
	return h
}

// Snapshot returns every metric's current value, sorted by name.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	items := make([]item, len(r.items))
	copy(items, r.items)
	r.mu.Unlock()
	out := make([]Sample, 0, len(items))
	for _, it := range items {
		if it.hist != nil {
			out = append(out,
				Sample{Name: it.name + "_count", Value: it.hist.Count()},
				Sample{Name: it.name + "_sum_ns", Value: it.hist.Sum()},
				Sample{Name: it.name + "_p50_ns", Value: it.hist.Quantile(0.50)},
				Sample{Name: it.name + "_p99_ns", Value: it.hist.Quantile(0.99)},
			)
			continue
		}
		out = append(out, Sample{Name: it.name, Value: it.read()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SnapshotMap returns the snapshot as a name → value map.
func (r *Registry) SnapshotMap() map[string]int64 {
	snap := r.Snapshot()
	out := make(map[string]int64, len(snap))
	for _, s := range snap {
		out[s.Name] = s.Value
	}
	return out
}

// WriteText writes the snapshot in a plain "name value" line format —
// the text exposition the bench tooling embeds.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s %d\n", s.Name, s.Value); err != nil {
			return err
		}
	}
	return nil
}
