// Package pairedres exercises the pairedres analyzer: pool
// Reserve/Alloc without Release, file opens without Close.
package pairedres

import (
	"os"
	"sync/atomic"
)

// BufferPool stands in for the engine's buffer pool: the analyzer
// matches acquisition/release pairing by the type name.
type BufferPool struct{ used int64 }

func (p *BufferPool) Reserve(n int64) bool { p.used += n; return true }
func (p *BufferPool) Alloc(n int64) []byte { return make([]byte, n) }
func (p *BufferPool) Release(n int64)      { p.used -= n }

// reserveLeak is the seeded violation: Reserve with no Release and no
// ledger update — the reservation shrinks the budget forever.
func reserveLeak(p *BufferPool, n int64) bool {
	return p.Reserve(n) // want `pool Reserve with no Release and no reserved-ledger update`
}

func allocLeak(p *BufferPool) []byte {
	return p.Alloc(64) // want `pool Alloc with no Release and no reserved-ledger update`
}

// reservePaired releases in the same function.
func reservePaired(p *BufferPool, n int64) {
	if !p.Reserve(n) {
		return
	}
	defer p.Release(n)
}

type spillRun struct {
	pool     *BufferPool
	reserved int64
}

// grow hands pairing duty to the type's Close path via the reserved
// ledger.
func (r *spillRun) grow(n int64) {
	if r.pool.Reserve(n) {
		r.reserved += n
	}
}

type parRun struct {
	pool     *BufferPool
	reserved atomic.Int64
}

// grow updates the ledger through an atomic method call.
func (r *parRun) grow(n int64) {
	if r.pool.Reserve(n) {
		r.reserved.Add(n)
	}
}

// openLeak never closes the descriptor and never hands it off.
func openLeak(path string) error {
	f, err := os.Open(path) // want `file opened here is never closed and never escapes`
	if err != nil {
		return err
	}
	buf := make([]byte, 8)
	_, _ = f.Read(buf)
	return nil
}

// openClosed pairs the open with a deferred Close.
func openClosed(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return nil
}

// openEscapes hands ownership to the caller.
func openEscapes(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

var _ = []any{reserveLeak, allocLeak, reservePaired, (*spillRun).grow, (*parRun).grow, openLeak, openClosed, openEscapes}
