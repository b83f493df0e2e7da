// Package wal implements the write-ahead log (paper §6): the WAL lives
// in a separate file next to the database and is consumed — truncated —
// by checkpoints. Committed transactions append their records followed
// by a commit marker in one durable write, so recovery replays exactly
// the committed prefix; a torn tail (crash mid-commit) is detected by
// per-record CRCs and discarded.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/checksum"
)

// RecordType tags each WAL record.
type RecordType byte

// The WAL record kinds. Payload layouts are owned by internal/core,
// which encodes and decodes them; the WAL itself only frames bytes.
const (
	RecCreateTable RecordType = iota + 1
	RecDropTable
	RecCreateView
	RecDropView
	RecInsert
	RecUpdate
	RecDelete
	RecCommit
)

// Record is one framed WAL entry.
type Record struct {
	Type    RecordType
	Payload []byte
}

// Log is an append-only record log over a single file. Nil *Log is a
// valid no-op log (in-memory databases).
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64
}

// Open opens or creates the WAL file at path.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return &Log{f: f, path: path, size: st.Size()}, nil
}

// Path returns the WAL file path.
func (l *Log) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Size returns the WAL's current byte size (for checkpoint heuristics).
func (l *Log) Size() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// AppendCommit durably appends a transaction's records followed by a
// commit marker. The fsync happens once, after the commit marker, which
// is the transaction's durability point.
func (l *Log) AppendCommit(records []Record, commitTS uint64) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size := frameHeader + 1 + 8 // the commit marker
	for _, r := range records {
		size += frameHeader + 1 + len(r.Payload)
	}
	buf := make([]byte, 0, size)
	for _, r := range records {
		buf = appendFramed(buf, r.Type, r.Payload)
	}
	var ts [8]byte
	binary.LittleEndian.PutUint64(ts[:], commitTS)
	buf = appendFramed(buf, RecCommit, ts[:])
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.size += int64(len(buf))
	return nil
}

// frameHeader is the bytes a frame puts before its body.
const frameHeader = 4 + 8

// appendFramed appends one frame, len u32 | crc u64 | type u8 | payload,
// where len and crc cover the body (type and payload). The body is
// written in place and the header filled in after it.
func appendFramed(dst []byte, typ RecordType, payload []byte) []byte {
	head := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, byte(typ))
	dst = append(dst, payload...)
	body := dst[head+frameHeader:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(body)))
	binary.LittleEndian.PutUint64(dst[head+4:], checksum.Sum(body))
	return dst
}

// CommittedTxn is one fully committed transaction recovered from the log.
type CommittedTxn struct {
	Records  []Record
	CommitTS uint64
}

// Replay scans the log and returns every fully committed transaction in
// commit order. Torn or corrupt tails end replay silently (they are, by
// construction, uncommitted); corruption *before* the last commit marker
// is reported as an error since committed data would be lost.
func (l *Log) Replay() ([]CommittedTxn, error) {
	if l == nil {
		return nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	data := make([]byte, l.size)
	if _, err := l.f.ReadAt(data, 0); err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	var (
		out     []CommittedTxn
		pending []Record
	)
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			break // torn frame header
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint64(data[off+4:])
		if length < 1 || off+frameHeader+length > len(data) {
			break // torn frame body
		}
		body := data[off+frameHeader : off+frameHeader+length]
		if checksum.Sum(body) != crc {
			if len(pending) == 0 {
				break // corruption at a txn boundary: treat as torn tail
			}
			return out, fmt.Errorf("wal: corrupt record at offset %d inside a transaction", off)
		}
		rec := Record{Type: RecordType(body[0]), Payload: append([]byte(nil), body[1:]...)}
		off += frameHeader + length
		if rec.Type == RecCommit {
			if len(rec.Payload) != 8 {
				return out, fmt.Errorf("wal: malformed commit marker")
			}
			out = append(out, CommittedTxn{
				Records:  pending,
				CommitTS: binary.LittleEndian.Uint64(rec.Payload),
			})
			pending = nil
			continue
		}
		pending = append(pending, rec)
	}
	return out, nil
}

// Truncate empties the log; called after a successful checkpoint has
// made all logged changes durable in the main file.
func (l *Log) Truncate() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	l.size = 0
	return l.f.Sync()
}

// Close closes the WAL file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}
