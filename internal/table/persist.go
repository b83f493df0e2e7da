package table

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Column persistence: each column of each table is serialized
// independently into its own block chain, so a checkpoint can rewrite
// only the columns that changed (paper §2: "when some columns in a table
// are changed, the unchanged columns should not be rewritten").
//
// Payload layout:
//
//	u64 rowCount | u32 nsegs | per segment: u32 len | encoded payload
//
// Each segment payload uses the light typed encodings (encseg.go), so a
// cold open can keep the segments compressed in memory and a predicated
// scan can refute them without decompression.

// SerializeColumn encodes the rows of column c visible to tx, in row
// order, segment by segment. It returns the payload, the number of rows
// encoded, and the exact zone-map stats of each serialized segment (the
// image the catalog persists so cold opens keep their zone maps).
func (t *DataTable) SerializeColumn(tx *txn.Transaction, c int) ([]byte, int64, []ColStats, error) {
	src, err := t.NewMorselSource(tx, ScanOptions{Columns: []int{c}})
	if err != nil {
		return nil, 0, nil, err
	}
	defer src.Close()
	sc := src.Worker()
	all := vector.New(t.typs[c], 0)
	for {
		chunk, err := sc.NextChunk()
		if err != nil {
			return nil, 0, nil, err
		}
		if chunk == nil {
			break
		}
		all.AppendRange(chunk.Cols[0], 0, chunk.Len())
	}
	rows := int64(all.Len())
	nsegs := int((rows + SegRows - 1) / SegRows)
	out := make([]byte, 12, 12+16*nsegs)
	binary.LittleEndian.PutUint64(out, uint64(rows))
	binary.LittleEndian.PutUint32(out[8:], uint32(nsegs))
	stats := make([]ColStats, 0, nsegs)
	seg := vector.New(t.typs[c], SegRows)
	for start := int64(0); start < rows; start += SegRows {
		count := int(minI64(SegRows, rows-start))
		seg.SetLen(0)
		seg.Valid.Reset()
		seg.AppendRange(all, int(start), count)
		enc := encodeSegColumn(seg, count)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(enc)))
		out = append(out, enc...)
		st := ColStats{Valid: true}
		st.widenRange(seg, 0, count)
		stats = append(stats, st)
	}
	return out, rows, stats, nil
}

// ParseColumnPayload splits a serialized column into its per-segment
// encoded payloads without decoding them, plus their byte footprint.
func ParseColumnPayload(data []byte) ([][]byte, int64, error) {
	if len(data) < 12 {
		return nil, 0, fmt.Errorf("table: column payload truncated")
	}
	rows := int64(binary.LittleEndian.Uint64(data))
	nsegs := int(binary.LittleEndian.Uint32(data[8:]))
	if want := int((rows + SegRows - 1) / SegRows); nsegs != want {
		return nil, 0, fmt.Errorf("table: column declares %d segments for %d rows", nsegs, rows)
	}
	data = data[12:]
	segs := make([][]byte, 0, nsegs)
	var bytes int64
	for i := 0; i < nsegs; i++ {
		if len(data) < 4 {
			return nil, 0, fmt.Errorf("table: column payload truncated")
		}
		l := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if len(data) < l {
			return nil, 0, fmt.Errorf("table: segment payload truncated")
		}
		segs = append(segs, data[:l])
		bytes += int64(l)
		data = data[l:]
	}
	return segs, bytes, nil
}

// DecodeColumnSegments parses a serialized column into per-segment
// decoded vectors and reports the decoded in-memory byte footprint
// (round-trip checks; the engine itself loads lazily via
// ParseColumnPayload).
func DecodeColumnSegments(data []byte) ([]*vector.Vector, int64, error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("table: column payload truncated")
	}
	rows := int64(binary.LittleEndian.Uint64(data))
	encSegs, _, err := ParseColumnPayload(data)
	if err != nil {
		return nil, 0, err
	}
	segs := make([]*vector.Vector, 0, len(encSegs))
	var bytes int64
	var total int64
	for _, enc := range encSegs {
		if len(enc) == 0 {
			return nil, 0, fmt.Errorf("table: empty segment payload")
		}
		typ, err := segPayloadType(enc[0])
		if err != nil {
			return nil, 0, err
		}
		sv := vector.New(typ, SegRows)
		if err := gatherSeg(enc, typ, nil, sv, nil); err != nil {
			return nil, 0, err
		}
		segs = append(segs, sv)
		bytes += vectorBytes(sv)
		total += int64(sv.Len())
	}
	if total != rows {
		return nil, 0, fmt.Errorf("table: column declares %d rows, payload has %d", rows, total)
	}
	return segs, bytes, nil
}

// segPayloadType infers the logical type a payload decodes to. Integer
// and Timestamp narrow from the same families; the round-trip helpers
// only need a compatible payload type.
func segPayloadType(kind byte) (types.Type, error) {
	switch kind {
	case segEncInt64:
		return types.BigInt, nil
	case segEncInt32:
		return types.Integer, nil
	case segEncDouble:
		return types.Double, nil
	case segEncBool:
		return types.Boolean, nil
	case segEncDict:
		return types.Varchar, nil
	default:
		return types.Invalid, fmt.Errorf("table: unknown segment encoding %d", kind)
	}
}

// vectorBytes estimates a vector's heap footprint for buffer accounting.
func vectorBytes(v *vector.Vector) int64 {
	n := int64(v.Len())
	switch v.Type {
	case types.Varchar:
		var b int64
		for _, s := range v.Str {
			b += int64(len(s)) + 16
		}
		return b
	case types.Boolean:
		return n
	case types.Integer:
		return 4 * n
	default:
		return 8 * n
	}
}

// ---- recovery application (single-threaded, already-committed) ----

// ApplyCommittedDelete marks rows deleted with the given commit stamp
// during WAL replay.
func (t *DataTable) ApplyCommittedDelete(rowIDs []int64, stamp uint64) error {
	t.mu.RLock()
	segs := t.segs
	t.mu.RUnlock()
	for _, rid := range rowIDs {
		segIdx := int(rid / SegRows)
		if segIdx >= len(segs) {
			return fmt.Errorf("table: recovery delete of row %d out of range", rid)
		}
		s := segs[segIdx]
		s.mu.Lock()
		s.materializeDeleteIDs()
		atomic.StoreUint64(&s.deleteID[rid%SegRows], stamp)
		s.mu.Unlock()
	}
	t.deleteDirty.Store(true)
	t.layoutDiverged.Store(true)
	return nil
}

// ApplyCommittedUpdate overwrites column col at the given rows during
// WAL replay. No undo chain is created: replay is single-threaded and
// all replayed transactions are committed.
func (t *DataTable) ApplyCommittedUpdate(col int, rowIDs []int64, vals *vector.Vector) error {
	release, err := t.PinColumns([]int{col})
	if err != nil {
		return err
	}
	defer release()
	t.mu.RLock()
	segs := t.segs
	t.mu.RUnlock()
	for j, rid := range rowIDs {
		segIdx := int(rid / SegRows)
		if segIdx >= len(segs) {
			return fmt.Errorf("table: recovery update of row %d out of range", rid)
		}
		s := segs[segIdx]
		if err := t.materializeSegCols(s, []int{col}); err != nil {
			return err
		}
		s.mu.Lock()
		s.cols[col].Set(int(rid%SegRows), vals.Get(j))
		s.stats[col].widenRange(vals, j, 1)
		s.mu.Unlock()
	}
	t.loadMu.Lock()
	t.cols[col].dirty = true
	t.loadMu.Unlock()
	return nil
}
