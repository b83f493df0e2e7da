package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestShardedCounterConcurrent(t *testing.T) {
	var c ShardedCounter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("sharded counter = %d, want %d", got, workers*per)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket [64, 128) → upper bound 128
	}
	h.Observe(1 << 20) // one outlier
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(0.50); got != 128 {
		t.Fatalf("p50 = %d, want 128", got)
	}
	if got := h.Quantile(0.99); got != 128 {
		t.Fatalf("p99 = %d, want 128 (99 of 100 obs in that bucket)", got)
	}
	if got := h.Quantile(1.0); got != 1<<21 {
		t.Fatalf("p100 = %d, want %d", got, 1<<21)
	}
	var empty Histogram
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty p99 = %d, want 0", got)
	}
}

func TestRegistrySnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total").Add(3)
	r.Gauge("a_gauge", func() int64 { return 7 })
	h := r.Histogram("m_wait")
	h.Observe(100)
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q >= %q", snap[i-1].Name, snap[i].Name)
		}
	}
	m := r.SnapshotMap()
	if m["z_total"] != 3 || m["a_gauge"] != 7 {
		t.Fatalf("snapshot map wrong: %v", m)
	}
	for _, want := range []string{"m_wait_count", "m_wait_sum_ns", "m_wait_p50_ns", "m_wait_p99_ns"} {
		if _, ok := m[want]; !ok {
			t.Fatalf("histogram sample %q missing from snapshot", want)
		}
	}
	if m["m_wait_count"] != 1 || m["m_wait_sum_ns"] != 100 {
		t.Fatalf("histogram samples wrong: %v", m)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup")
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_gauge", func() int64 { return 1 })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a_gauge 1\nb_total 2\n"
	if sb.String() != want {
		t.Fatalf("text exposition = %q, want %q", sb.String(), want)
	}
}
