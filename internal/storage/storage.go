// Package storage implements QuackDB's single-file storage format
// (paper §6): the database is one file partitioned into fixed-size
// 256 KB blocks that are read and written in their entirety. The first
// blocks hold a doubly-buffered header pointing at the table catalog and
// the free list; checkpoints write new blocks first and then atomically
// update the root pointer, so a crash at any instant leaves a consistent
// database. Every block carries a checksum that is verified on read
// (§3): silent disk corruption surfaces as an error, never as wrong data.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/checksum"
)

// BlockSize is the fixed physical block size from the paper.
const BlockSize = 256 * 1024

// BlockID addresses a block within the database file. Header slots
// occupy blocks 0 and 1; data blocks start at 2.
type BlockID int64

// InvalidBlock is the nil block pointer (end of chain, empty root).
const InvalidBlock BlockID = -1

const (
	magic         = "QUACKDB1"
	headerSlots   = 2
	firstDataID   = BlockID(headerSlots)
	blockHdrBytes = checksum.Size + 4 // checksum + payload length
	// MaxPayload is the usable space in one block.
	MaxPayload = BlockSize - blockHdrBytes
)

// ErrCorrupt wraps checksum failures and structural damage.
var ErrCorrupt = errors.New("storage: corrupt block")

// blockFile abstracts the backing file so ":memory:" databases reuse the
// same code paths (minus durability).
type blockFile interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// memFile is the in-memory blockFile.
type memFile struct {
	mu   sync.RWMutex
	data []byte
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(m.data)) {
		grown := make([]byte, need)
		copy(grown, m.data)
		m.data = grown
	}
	copy(m.data[off:], p)
	return len(p), nil
}

func (m *memFile) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < int64(len(m.data)) {
		m.data = m.data[:size]
	}
	return nil
}

func (m *memFile) Sync() error  { return nil }
func (m *memFile) Close() error { return nil }

// Manager owns the database file: block allocation, checksummed block
// IO, and the atomic header swap that commits a checkpoint.
type Manager struct {
	mu         sync.Mutex
	f          blockFile
	path       string
	inMemory   bool
	blockCount int64 // total blocks including headers
	free       []BlockID
	version    uint64  // header version counter
	root       BlockID // catalog chain head as of the last checkpoint

	// checksums is verify-on-read (experiment E8 and PRAGMA
	// checksum_verification toggle it). Atomic, not mu-guarded: the
	// PRAGMA may flip it from one session while another session's query
	// is mid-read, and reads must not serialize on the allocator mutex
	// just to observe a knob.
	checksums atomic.Bool

	// Stats, read via Stats().
	blocksRead    int64
	blocksWritten int64
}

// Options configures a Manager.
type Options struct {
	// DisableChecksums turns off verification on read (writes still
	// store checksums). Only the E8 ablation uses this.
	DisableChecksums bool
}

// Open opens or creates the database file at path. An empty path or
// ":memory:" yields a volatile in-memory database. The second return
// value reports whether a new database was initialized.
func Open(path string, opts Options) (*Manager, bool, error) {
	m := &Manager{
		path:       path,
		root:       InvalidBlock,
		blockCount: headerSlots,
	}
	m.checksums.Store(!opts.DisableChecksums)
	if path == "" || path == ":memory:" {
		m.f = &memFile{}
		m.inMemory = true
		if err := m.writeHeader(); err != nil {
			return nil, false, err
		}
		return m, true, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("storage: open %s: %w", path, err)
	}
	m.f = f
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, false, err
	}
	if st.Size() == 0 {
		if err := m.writeHeader(); err != nil {
			_ = f.Close()
			return nil, false, err
		}
		return m, true, nil
	}
	if err := m.readHeader(); err != nil {
		_ = f.Close()
		return nil, false, err
	}
	return m, false, nil
}

// InMemory reports whether this database is volatile.
func (m *Manager) InMemory() bool { return m.inMemory }

// SetChecksums toggles verification on read (used by experiment E8).
func (m *Manager) SetChecksums(on bool) { m.checksums.Store(on) }

// ChecksumsEnabled reports whether block reads verify their checksum.
func (m *Manager) ChecksumsEnabled() bool { return m.checksums.Load() }

// Root returns the catalog root block recorded by the last checkpoint.
func (m *Manager) Root() BlockID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.root
}

// Stats returns cumulative blocks read and written.
func (m *Manager) Stats() (read, written int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.blocksRead, m.blocksWritten
}

// Allocate returns a block to write to, reusing freed blocks first.
func (m *Manager) Allocate() BlockID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		return id
	}
	id := BlockID(m.blockCount)
	m.blockCount++
	return id
}

// Free returns blocks to the free list. They become reusable
// immediately but are only durably free after the next Checkpoint.
func (m *Manager) Free(ids ...BlockID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		if id >= firstDataID {
			m.free = append(m.free, id)
		}
	}
}

// FreeCount returns the current free-list length.
func (m *Manager) FreeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.free)
}

// WriteBlock stores payload (≤ MaxPayload bytes) into block id with its
// checksum.
func (m *Manager) WriteBlock(id BlockID, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("storage: payload %d exceeds block capacity %d", len(payload), MaxPayload)
	}
	if id < firstDataID {
		return fmt.Errorf("storage: block %d is reserved for headers", id)
	}
	buf := make([]byte, blockHdrBytes+len(payload))
	binary.LittleEndian.PutUint32(buf[checksum.Size:], uint32(len(payload)))
	copy(buf[blockHdrBytes:], payload)
	checksum.Put(buf, checksum.Sum(buf[checksum.Size:]))
	if _, err := m.f.WriteAt(buf, int64(id)*BlockSize); err != nil {
		return fmt.Errorf("storage: write block %d: %w", id, err)
	}
	m.mu.Lock()
	m.blocksWritten++
	m.mu.Unlock()
	return nil
}

// ReadBlock reads and (unless disabled) verifies block id, returning its
// payload.
func (m *Manager) ReadBlock(id BlockID) ([]byte, error) {
	if id < firstDataID {
		return nil, fmt.Errorf("storage: block %d is reserved for headers", id)
	}
	hdr := make([]byte, blockHdrBytes)
	if _, err := m.f.ReadAt(hdr, int64(id)*BlockSize); err != nil {
		return nil, fmt.Errorf("storage: read block %d: %w", id, err)
	}
	length := binary.LittleEndian.Uint32(hdr[checksum.Size:])
	if length > MaxPayload {
		return nil, fmt.Errorf("%w: block %d declares %d payload bytes", ErrCorrupt, id, length)
	}
	buf := make([]byte, 4+length)
	if _, err := m.f.ReadAt(buf, int64(id)*BlockSize+checksum.Size); err != nil {
		return nil, fmt.Errorf("storage: read block %d payload: %w", id, err)
	}
	m.mu.Lock()
	m.blocksRead++
	m.mu.Unlock()
	// Snapshot the knob once per read; a concurrent PRAGMA flip applies
	// to subsequent reads, never to a half-verified one.
	if m.checksums.Load() {
		if err := checksum.Verify(buf, checksum.Get(hdr)); err != nil {
			return nil, fmt.Errorf("%w: block %d: %v", ErrCorrupt, id, err)
		}
	}
	return buf[4:], nil
}

// Checkpoint atomically installs root as the new catalog root and
// persists the current free list and block count. The caller must have
// already written all blocks reachable from root. newlyFree lists blocks
// owned by the previous checkpoint that are now garbage; they join the
// free list *after* the header swap so a crash mid-checkpoint can never
// have overwritten old state.
func (m *Manager) Checkpoint(root BlockID, newlyFree []BlockID) error {
	if err := m.f.Sync(); err != nil && !m.inMemory {
		return fmt.Errorf("storage: sync before checkpoint: %w", err)
	}
	m.mu.Lock()
	m.root = root
	m.mu.Unlock()
	// First header write is the atomic commit point: the new root
	// becomes visible while the old checkpoint's blocks are still
	// intact.
	if err := m.writeHeader(); err != nil {
		return err
	}
	if len(newlyFree) == 0 {
		return nil
	}
	// Second write persists the recycled blocks in the free list; if it
	// is torn we only leak free blocks until the next checkpoint, never
	// correctness.
	m.Free(newlyFree...)
	return m.writeHeader()
}

// Close syncs and closes the database file.
func (m *Manager) Close() error {
	if err := m.f.Sync(); err != nil && !m.inMemory {
		return err
	}
	return m.f.Close()
}

// header layout (within one header slot's payload):
//
//	magic[8] | version u64 | root i64 | blockCount i64 | freeN u32 | free ids...
func (m *Manager) encodeHeader() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, 0, 8+8+8+8+4+8*len(m.free))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint64(out, m.version)
	out = binary.LittleEndian.AppendUint64(out, uint64(m.root))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.blockCount))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.free)))
	for _, id := range m.free {
		out = binary.LittleEndian.AppendUint64(out, uint64(id))
	}
	return out
}

// writeHeader writes the header into the slot version+1 selects, then
// bumps the version. The single WriteAt of a checksummed slot is the
// atomic commit point.
func (m *Manager) writeHeader() error {
	m.mu.Lock()
	m.version++
	slot := BlockID(m.version % headerSlots)
	m.mu.Unlock()

	payload := m.encodeHeader()
	if len(payload) > MaxPayload {
		return fmt.Errorf("storage: header too large (%d bytes; free list too long)", len(payload))
	}
	buf := make([]byte, blockHdrBytes+len(payload))
	binary.LittleEndian.PutUint32(buf[checksum.Size:], uint32(len(payload)))
	copy(buf[blockHdrBytes:], payload)
	checksum.Put(buf, checksum.Sum(buf[checksum.Size:]))
	if _, err := m.f.WriteAt(buf, int64(slot)*BlockSize); err != nil {
		return fmt.Errorf("storage: write header slot %d: %w", slot, err)
	}
	return m.f.Sync()
}

// readHeader loads both header slots and adopts the valid one with the
// highest version, recovering from a torn header write.
func (m *Manager) readHeader() error {
	var (
		bestVersion uint64
		bestPayload []byte
	)
	for slot := BlockID(0); slot < headerSlots; slot++ {
		hdr := make([]byte, blockHdrBytes)
		if _, err := m.f.ReadAt(hdr, int64(slot)*BlockSize); err != nil {
			continue
		}
		length := binary.LittleEndian.Uint32(hdr[checksum.Size:])
		if length > MaxPayload {
			continue
		}
		buf := make([]byte, 4+length)
		if _, err := m.f.ReadAt(buf, int64(slot)*BlockSize+checksum.Size); err != nil {
			continue
		}
		if checksum.Verify(buf, checksum.Get(hdr)) != nil {
			continue
		}
		payload := buf[4:]
		if len(payload) < 8+8+8+8+4 || string(payload[:8]) != magic {
			continue
		}
		version := binary.LittleEndian.Uint64(payload[8:])
		if bestPayload == nil || version > bestVersion {
			bestVersion = version
			bestPayload = payload
		}
	}
	if bestPayload == nil {
		return fmt.Errorf("%w: no valid header slot (not a QuackDB file or both headers damaged)", ErrCorrupt)
	}
	p := bestPayload[16:]
	m.version = bestVersion
	m.root = BlockID(binary.LittleEndian.Uint64(p))
	m.blockCount = int64(binary.LittleEndian.Uint64(p[8:]))
	freeN := binary.LittleEndian.Uint32(p[16:])
	p = p[20:]
	if len(p) < int(freeN)*8 {
		return fmt.Errorf("%w: header free list truncated", ErrCorrupt)
	}
	m.free = make([]BlockID, freeN)
	for i := range m.free {
		m.free[i] = BlockID(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return nil
}

// ChainWriter streams an arbitrarily long byte payload across a chain of
// blocks. Each block's payload starts with the next block's id
// (InvalidBlock terminates the chain).
type ChainWriter struct {
	m      *Manager
	blocks []BlockID
	buf    []byte
	head   BlockID
}

// NewChainWriter starts a block chain.
func NewChainWriter(m *Manager) *ChainWriter {
	return &ChainWriter{m: m, head: InvalidBlock}
}

// Write buffers p into the chain. It never fails until Finish.
func (w *ChainWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Finish flushes the chain to storage and returns its head block and all
// blocks used. An empty payload returns InvalidBlock.
func (w *ChainWriter) Finish() (BlockID, []BlockID, error) {
	const chunk = MaxPayload - 8
	data := w.buf
	if len(data) == 0 {
		return InvalidBlock, nil, nil
	}
	nBlocks := (len(data) + chunk - 1) / chunk
	ids := make([]BlockID, nBlocks)
	for i := range ids {
		ids[i] = w.m.Allocate()
	}
	for i := 0; i < nBlocks; i++ {
		next := InvalidBlock
		if i+1 < nBlocks {
			next = ids[i+1]
		}
		lo := i * chunk
		hi := lo + chunk
		if hi > len(data) {
			hi = len(data)
		}
		payload := make([]byte, 8+hi-lo)
		binary.LittleEndian.PutUint64(payload, uint64(next))
		copy(payload[8:], data[lo:hi])
		if err := w.m.WriteBlock(ids[i], payload); err != nil {
			return InvalidBlock, nil, err
		}
	}
	w.head = ids[0]
	w.blocks = ids
	return w.head, ids, nil
}

// ReadChain reads a whole block chain starting at head and returns the
// payload plus every block id in the chain (for later freeing).
func ReadChain(m *Manager, head BlockID) ([]byte, []BlockID, error) {
	var (
		out []byte
		ids []BlockID
	)
	for id := head; id != InvalidBlock; {
		payload, err := m.ReadBlock(id)
		if err != nil {
			return nil, nil, err
		}
		if len(payload) < 8 {
			return nil, nil, fmt.Errorf("%w: chain block %d too short", ErrCorrupt, id)
		}
		ids = append(ids, id)
		next := BlockID(binary.LittleEndian.Uint64(payload))
		out = append(out, payload[8:]...)
		if len(ids) > 1<<24 {
			return nil, nil, fmt.Errorf("%w: chain from block %d does not terminate", ErrCorrupt, head)
		}
		id = next
	}
	return out, ids, nil
}
