// Package buffer implements QuackDB's buffer manager. Unlike a
// traditional OLAP server that assumes it owns the machine, an embedded
// database must cooperate with its host application (paper §4): the pool
// enforces a hard, user-configurable memory limit, evicts clean cached
// column data under pressure, and lets operators ask for budget before
// building large intermediates so they can degrade gracefully (e.g. a
// hash join switching to an out-of-core merge join) instead of starving
// the application.
//
// The pool also integrates the paper's §3/§6 resilience plan: buffers
// can be run through a moving-inversions memory test on allocation, so
// broken RAM regions are detected and quarantined instead of silently
// corrupting query state.
package buffer

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/memtest"
)

// ErrOutOfMemory is returned when a reservation cannot be satisfied
// within the configured limit even after evicting everything evictable.
// Operators treat it as a signal to switch to an out-of-core strategy.
var ErrOutOfMemory = errors.New("buffer: memory limit exceeded")

// ErrBadMemory is returned when freshly allocated memory repeatedly
// fails the moving-inversions test: the machine's RAM is broken and
// continuing would risk silent data corruption (§3).
var ErrBadMemory = errors.New("buffer: memory failed allocation-time test; hardware fault suspected")

// Evictable is cached state the pool may drop under memory pressure —
// typically a clean, reloadable column. Evict returns the bytes freed,
// or ok=false if the state is pinned or dirty.
type Evictable interface {
	Evict() (bytes int64, ok bool)
}

// Pool tracks and limits the database's memory use.
type Pool struct {
	mu        sync.Mutex
	limit     int64
	used      int64
	peak      int64
	evictions int64
	cached    []Evictable
	tester    *memtest.Tester
	testAlloc bool
}

// NewPool returns a pool with the given byte limit (0 or negative means
// unlimited). tester may be nil; memory testing starts disabled.
func NewPool(limit int64, tester *memtest.Tester) *Pool {
	if tester == nil {
		tester = memtest.NewTester(nil)
	}
	return &Pool{limit: limit, tester: tester}
}

// SetLimit changes the memory limit (0 or negative = unlimited). It does
// not evict retroactively; the next reservation under pressure will.
func (p *Pool) SetLimit(limit int64) {
	p.mu.Lock()
	p.limit = limit
	p.mu.Unlock()
}

// Limit returns the configured limit (≤0 = unlimited).
func (p *Pool) Limit() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.limit
}

// Used returns current reserved bytes.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Peak returns the high-water mark since the last ResetPeak.
func (p *Pool) Peak() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// ResetPeak resets the high-water mark to current usage.
func (p *Pool) ResetPeak() {
	p.mu.Lock()
	p.peak = p.used
	p.mu.Unlock()
}

// Evictions returns how many cache entries have been evicted.
func (p *Pool) Evictions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions
}

// EnableMemTest toggles allocation-time moving-inversions testing.
func (p *Pool) EnableMemTest(on bool) {
	p.mu.Lock()
	p.testAlloc = on
	p.mu.Unlock()
}

// MemTestEnabled reports whether allocations are memory-tested.
func (p *Pool) MemTestEnabled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.testAlloc
}

// AddEvictable registers reloadable cached state (LRU order: oldest
// first).
func (p *Pool) AddEvictable(e Evictable) {
	p.mu.Lock()
	p.cached = append(p.cached, e)
	p.mu.Unlock()
}

// RemoveEvictable unregisters cached state (e.g. it became dirty).
func (p *Pool) RemoveEvictable(e Evictable) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, c := range p.cached {
		if c == e {
			p.cached = append(p.cached[:i], p.cached[i+1:]...)
			return
		}
	}
}

// Reserve claims n bytes of budget, evicting cached state if needed.
func (p *Pool) Reserve(n int64) error {
	if n < 0 {
		return fmt.Errorf("buffer: negative reservation %d", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.limit > 0 && p.used+n > p.limit {
		p.evictLocked(p.used + n - p.limit)
		if p.used+n > p.limit {
			return fmt.Errorf("%w: need %d bytes, %d in use, limit %d", ErrOutOfMemory, n, p.used, p.limit)
		}
	}
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
	return nil
}

// Release returns n bytes of budget.
func (p *Pool) Release(n int64) {
	p.mu.Lock()
	p.used -= n
	if p.used < 0 {
		p.used = 0
	}
	p.mu.Unlock()
}

// evictLocked drops cached entries (oldest first) until at least need
// bytes were freed or nothing evictable remains.
func (p *Pool) evictLocked(need int64) {
	var freed int64
	remaining := p.cached[:0]
	for i, e := range p.cached {
		if freed >= need {
			remaining = append(remaining, p.cached[i:]...)
			break
		}
		bytes, ok := e.Evict()
		if ok {
			freed += bytes
			p.used -= bytes
			p.evictions++
		} else {
			remaining = append(remaining, e)
		}
	}
	p.cached = remaining
	if p.used < 0 {
		p.used = 0
	}
}

// Allocate reserves and returns a zeroed buffer of n bytes. If memory
// testing is enabled the buffer is verified with moving inversions
// first; a buffer that fails is quarantined (its reservation is not
// returned) and a replacement is tried, up to three times.
func (p *Pool) Allocate(n int) ([]byte, error) {
	p.mu.Lock()
	test := p.testAlloc
	p.mu.Unlock()
	for attempt := 0; attempt < 3; attempt++ {
		if err := p.Reserve(int64(n)); err != nil {
			return nil, err
		}
		buf := make([]byte, n)
		if !test || p.tester.Test(buf) {
			return buf, nil
		}
		// Quarantine: keep the reservation so the broken region is
		// never reused, and try a fresh allocation.
	}
	return nil, ErrBadMemory
}

// Freed releases a buffer obtained from Allocate.
func (p *Pool) Freed(buf []byte) { p.Release(int64(len(buf))) }
