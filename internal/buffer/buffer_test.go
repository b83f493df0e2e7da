package buffer

import (
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/memtest"
)

func TestReserveRelease(t *testing.T) {
	p := NewPool(1000, nil)
	if err := p.Reserve(600); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(500); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-limit reservation: %v", err)
	}
	p.Release(600)
	if p.Used() != 0 {
		t.Fatalf("used = %d", p.Used())
	}
	if err := p.Reserve(900); err != nil {
		t.Fatal(err)
	}
}

func TestUnlimitedPool(t *testing.T) {
	p := NewPool(0, nil)
	if err := p.Reserve(1 << 40); err != nil {
		t.Fatal(err)
	}
}

func TestPeakTracking(t *testing.T) {
	p := NewPool(0, nil)
	p.Reserve(100)
	p.Reserve(200)
	p.Release(250)
	if p.Peak() != 300 {
		t.Fatalf("peak = %d, want 300", p.Peak())
	}
	p.ResetPeak()
	if p.Peak() != 50 {
		t.Fatalf("peak after reset = %d, want 50", p.Peak())
	}
}

type fakeEvictable struct {
	bytes   int64
	pinned  bool
	evicted bool
}

func (f *fakeEvictable) Evict() (int64, bool) {
	if f.pinned {
		return 0, false
	}
	f.evicted = true
	return f.bytes, true
}

func TestEvictionUnderPressure(t *testing.T) {
	p := NewPool(1000, nil)
	cached := &fakeEvictable{bytes: 400}
	p.Reserve(400)
	p.AddEvictable(cached)
	p.Reserve(500)
	// 900 used; a 300-byte reservation must evict the cache entry.
	if err := p.Reserve(300); err != nil {
		t.Fatal(err)
	}
	if !cached.evicted {
		t.Fatal("cache entry not evicted")
	}
	if p.Used() != 800 { // 900 - 400 + 300
		t.Fatalf("used = %d", p.Used())
	}
	if p.Evictions() != 1 {
		t.Fatalf("evictions = %d", p.Evictions())
	}
}

func TestPinnedEntriesSurviveEviction(t *testing.T) {
	p := NewPool(1000, nil)
	pinned := &fakeEvictable{bytes: 500, pinned: true}
	p.Reserve(500)
	p.AddEvictable(pinned)
	if err := p.Reserve(800); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM with only pinned cache: %v", err)
	}
	if pinned.evicted {
		t.Fatal("pinned entry evicted")
	}
}

func TestRemoveEvictable(t *testing.T) {
	p := NewPool(1000, nil)
	e := &fakeEvictable{bytes: 500}
	p.Reserve(500)
	p.AddEvictable(e)
	p.RemoveEvictable(e)
	if err := p.Reserve(800); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("removed entry still evicted")
	}
}

func TestAllocateWithMemTest(t *testing.T) {
	p := NewPool(1<<20, memtest.NewTester(nil))
	p.EnableMemTest(true)
	buf, err := p.Allocate(4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 4096 || p.Used() != 4096 {
		t.Fatalf("len=%d used=%d", len(buf), p.Used())
	}
	p.Freed(buf)
	if p.Used() != 0 {
		t.Fatal("not released")
	}
}

func TestAllocateBrokenMemoryQuarantined(t *testing.T) {
	tester := memtest.NewTester(faults.StuckBitRegion(10, 1))
	p := NewPool(1<<20, tester)
	p.EnableMemTest(true)
	if _, err := p.Allocate(1024); !errors.Is(err, ErrBadMemory) {
		t.Fatalf("broken memory not reported: %v", err)
	}
	// Reservations for quarantined buffers are not returned.
	if p.Used() != 3*1024 {
		t.Fatalf("quarantined bytes = %d, want 3072", p.Used())
	}
}

func TestNegativeReservation(t *testing.T) {
	p := NewPool(0, nil)
	if err := p.Reserve(-5); err == nil {
		t.Fatal("negative reservation accepted")
	}
}
