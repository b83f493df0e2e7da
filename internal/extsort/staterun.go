package extsort

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/buffer"
)

// State runs are the operator-state spilling substrate: runs of opaque
// (key, state) records in the order they were appended, written when an
// operator's accumulator table exceeds its memory budget and read back
// partition-by-partition at finish. The layout mirrors the sorted-row
// runs above — length-prefixed blocks with a block-offset index recorded
// at spill time, read back with positional reads so readers never
// contend on a shared file offset. All of one spiller's runs append to a
// single unlinked temp file (one fd per spilling thread, however many
// times it spills). The one consumer is the partitioned hash aggregate
// (internal/exec), which re-loads its runs by hash and needs no order.

// stateBlockTarget is the block size state-run writers aim for before
// flushing; one block is the unit of read-back IO.
const stateBlockTarget = 64 << 10

// StateSpillFile is one spilling thread's backing file: an unlinked
// temp file (the fd keeps it alive; no litter on crash) holding any
// number of sealed runs. Not safe for concurrent writers; cursors over
// sealed runs pread and may run concurrently with further writes.
type StateSpillFile struct {
	f       *os.File
	written int64
	active  bool
	pool    *buffer.Pool // optional: accounts cursors' read-back blocks
}

// SetPool enables buffer-pool accounting of the read-back blocks held by
// cursors over this file's runs. Accounting is best-effort: the merge
// that drains the runs is itself the memory-reclaiming path, so a failed
// reservation never aborts it — the cursor just runs unaccounted.
func (sf *StateSpillFile) SetPool(p *buffer.Pool) { sf.pool = p }

// NewStateSpillFile creates the backing file in tmpDir.
func NewStateSpillFile(tmpDir string) (*StateSpillFile, error) {
	f, err := os.CreateTemp(tmpDir, "quack-aggstate-*.spill")
	if err != nil {
		return nil, fmt.Errorf("extsort: create state spill file: %w", err)
	}
	//lint:ignore erracc unlink-while-open spill idiom: a failed remove only delays tmp cleanup, the data lives on the open fd
	os.Remove(f.Name())
	return &StateSpillFile{f: f}, nil
}

// File exposes the backing temp file (fd-accounting tests and fault
// injection; the file is unlinked, so there is nothing else to reach).
func (sf *StateSpillFile) File() *os.File { return sf.f }

// Close releases the backing file — and with it every run written to
// it. Idempotent.
func (sf *StateSpillFile) Close() {
	if sf.f != nil {
		_ = sf.f.Close()
		sf.f = nil
	}
}

// NewRun starts a new run appended to the file. Only one writer may be
// open at a time; Finish or Abort it before starting the next.
func (sf *StateSpillFile) NewRun() (*StateRunWriter, error) {
	if sf.f == nil {
		return nil, fmt.Errorf("extsort: state spill file closed")
	}
	if sf.active {
		return nil, fmt.Errorf("extsort: state run writer already open")
	}
	sf.active = true
	return &StateRunWriter{sf: sf}, nil
}

// StateRunWriter writes one state run. Records keep the order they are
// appended in; keys may repeat and come in any order. Finish seals the
// run for reading.
type StateRunWriter struct {
	sf    *StateSpillFile
	block []byte
	offs  []int64
	bytes int64
	n     int
}

// Append adds one record.
func (w *StateRunWriter) Append(key, state []byte) error {
	w.block = binary.AppendUvarint(w.block, uint64(len(key)))
	w.block = append(w.block, key...)
	w.block = binary.AppendUvarint(w.block, uint64(len(state)))
	w.block = append(w.block, state...)
	w.n++
	if len(w.block) >= stateBlockTarget {
		return w.flush()
	}
	return nil
}

func (w *StateRunWriter) flush() error {
	if len(w.block) == 0 {
		return nil
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(w.block)))
	if _, err := w.sf.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("extsort: write state run: %w", err)
	}
	if _, err := w.sf.f.Write(w.block); err != nil {
		return fmt.Errorf("extsort: write state run: %w", err)
	}
	w.offs = append(w.offs, w.sf.written)
	w.sf.written += int64(len(w.block) + 4)
	w.bytes += int64(len(w.block) + 4)
	w.block = w.block[:0]
	return nil
}

// Finish seals the run. The writer must not be used afterwards; the run
// reads through the spill file, which must outlive it.
func (w *StateRunWriter) Finish() (*StateRun, error) {
	if err := w.flush(); err != nil {
		w.sf.active = false
		return nil, err
	}
	w.sf.active = false
	return &StateRun{sf: w.sf, offs: w.offs, bytes: w.bytes, n: w.n}, nil
}

// Abort discards the half-written run (error paths). Any blocks already
// flushed stay as dead bytes in the spill file; no run references them.
func (w *StateRunWriter) Abort() {
	w.sf.active = false
}

// StateRun is one sealed run of (key, state) records.
type StateRun struct {
	sf    *StateSpillFile
	offs  []int64
	bytes int64
	n     int
}

// Bytes reports the run's on-disk size (spill statistics).
func (r *StateRun) Bytes() int64 { return r.bytes }

// Len reports the number of records in the run.
func (r *StateRun) Len() int { return r.n }

// Cursor returns a cursor positioned before the first record. Cursors
// pread, so several may walk one run (or sibling runs of the same spill
// file) concurrently.
func (r *StateRun) Cursor() *StateCursor {
	return &StateCursor{run: r}
}

// StateCursor streams a run's records in the order they were appended.
type StateCursor struct {
	run      *StateRun
	blockIdx int
	block    []byte
	pos      int
	key      []byte
	state    []byte
	reserved int64 // pool bytes held for the read-back block buffer
}

// Close drops the cursor's block buffer and releases its reservation.
// Idempotent; Next also releases it when the run is exhausted, so Close
// only matters on early-exit and error paths.
func (c *StateCursor) Close() {
	c.block = nil
	c.releaseReserved()
}

func (c *StateCursor) releaseReserved() {
	if p := c.run.sf.pool; p != nil && c.reserved > 0 {
		p.Release(c.reserved)
		c.reserved = 0
	}
}

// Next advances to the next record, reporting false at the end. Key and
// State are valid until the following Next call.
func (c *StateCursor) Next() (bool, error) {
	for c.pos >= len(c.block) {
		if c.blockIdx >= len(c.run.offs) {
			c.block = nil
			c.releaseReserved()
			return false, nil
		}
		if err := c.loadBlock(c.blockIdx); err != nil {
			return false, err
		}
		c.blockIdx++
	}
	var err error
	if c.key, err = c.readField(); err != nil {
		return false, err
	}
	if c.state, err = c.readField(); err != nil {
		return false, err
	}
	return true, nil
}

func (c *StateCursor) readField() ([]byte, error) {
	n, used := binary.Uvarint(c.block[c.pos:])
	if used <= 0 || c.pos+used+int(n) > len(c.block) {
		return nil, fmt.Errorf("extsort: corrupt state run record")
	}
	c.pos += used
	field := c.block[c.pos : c.pos+int(n)]
	c.pos += int(n)
	return field, nil
}

func (c *StateCursor) loadBlock(idx int) error {
	if c.run.sf.f == nil {
		return fmt.Errorf("extsort: state spill file closed")
	}
	off := c.run.offs[idx]
	var hdr [4]byte
	if _, err := c.run.sf.f.ReadAt(hdr[:], off); err != nil {
		return fmt.Errorf("extsort: read state run: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int64(n) > c.run.sf.written {
		return fmt.Errorf("extsort: corrupt state run block header (%d bytes)", n)
	}
	if cap(c.block) < int(n) {
		c.block = make([]byte, n)
		// The buffer is reused across blocks and only ever grows; account
		// its capacity (best-effort — read-back must proceed regardless).
		if p := c.run.sf.pool; p != nil {
			if grown := int64(cap(c.block)); grown > c.reserved {
				if p.Reserve(grown-c.reserved) == nil {
					c.reserved = grown
				}
			}
		}
	}
	c.block = c.block[:n]
	if _, err := io.ReadFull(io.NewSectionReader(c.run.sf.f, off+4, int64(n)), c.block); err != nil {
		return fmt.Errorf("extsort: read state run block: %w", err)
	}
	c.pos = 0
	return nil
}

// Key returns the current record's key (valid until the next Next).
func (c *StateCursor) Key() []byte { return c.key }

// State returns the current record's payload (valid until the next Next).
func (c *StateCursor) State() []byte { return c.state }
