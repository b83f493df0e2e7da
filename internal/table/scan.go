package table

import (
	"fmt"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// ScanOptions configures a table scan.
type ScanOptions struct {
	// Columns lists the columns to materialize, in output order.
	// nil means all columns. Scanning a subset never touches (or loads)
	// the other columns — the paper's partitioned-column requirement.
	Columns []int
	// WithRowIDs appends a BIGINT row-id column after the projected
	// columns; UPDATE and DELETE plans use it to address rows.
	WithRowIDs bool
	// ZoneFilters are scan-eligible conjuncts of the pushed predicate.
	// Segments whose zone maps (or compressed payloads) refute one are
	// skipped without being materialized. Skipping is purely an
	// optimization — callers must still apply the full predicate per
	// row, so results are exact whether or not a segment was skipped.
	ZoneFilters []ZoneFilter
	// EncodedExec lets the scan evaluate Exact zone filters directly
	// over still-compressed segment payloads and materialize only the
	// selected rows (encexec.go). Purely an execution strategy: the
	// surviving rows, their order and their chunk boundaries are
	// identical with it on or off.
	EncodedExec bool
}

// ScanCounts is what a scan did, segment by segment: segments
// materialized (Scanned) and refuted by zone maps or their compressed
// payloads (Skipped); of the scanned ones, those whose filters executed
// over the compressed payloads (Encoded) and the rows those selected and
// gathered (EncodedRows). DecodedRows vs SelectedRows contrasts rows
// materialized against rows emitted: equal on the encoded path (late
// materialization), decoded >= selected on the full-decode path.
type ScanCounts struct {
	Scanned, Skipped, Encoded int64
	EncodedRows               int64
	DecodedRows, SelectedRows int64
}

// segReader holds the per-reader state needed to materialize one
// segment's snapshot: the projected columns, the transaction whose
// snapshot is reconstructed, and scratch buffers. It is shared by the
// sequential Scanner and the morsel workers of a parallel scan; each
// reader owns its own scratch, so readers never contend.
type segReader struct {
	t       *DataTable
	tx      *txn.Transaction
	cols    []int
	rowIDs  bool
	filters []ZoneFilter
	typs    []types.Type // the output chunk's schema
	// sel is the visible rows of the segment being read; pos maps a
	// segment row to its output row while an undo chain is applied.
	// Both are allocated on first use.
	pos []int32
	sel []int
	// Encoded-execution scratch, allocated on first use: the kernels'
	// match vector (encexec.go) and the int64 gather buffer (encseg.go).
	match []bool
	codes []int64
}

func newSegReader(t *DataTable, tx *txn.Transaction, cols []int, rowIDs bool, filters []ZoneFilter) segReader {
	typs := make([]types.Type, 0, len(cols)+1)
	for _, c := range cols {
		typs = append(typs, t.typs[c])
	}
	if rowIDs {
		typs = append(typs, types.BigInt)
	}
	return segReader{t: t, tx: tx, cols: cols, rowIDs: rowIDs, filters: filters, typs: typs}
}

// visible sets s.sel to the rows among the segment's first n that this
// snapshot sees. Caller holds seg.mu.
func (s *segReader) visible(seg *segment, n int) {
	if cap(s.sel) < n {
		s.sel = make([]int, 0, n)
	}
	s.sel = s.sel[:0]
	for r := 0; r < n; r++ {
		if !s.tx.Sees(seg.loadInsert(r)) {
			continue
		}
		if d := seg.loadDelete(r); d != 0 && s.tx.Sees(d) {
			continue
		}
		s.sel = append(s.sel, r)
	}
}

// read is the one reader of a segment. Under the segment lock it finds
// the rows this snapshot sees among the segment's first maxRows (scans
// pass the row count snapshotted at open, so rows appended afterwards —
// even by the scanning transaction itself — stay invisible); with
// kernels set, narrows them by each Exact pushed filter on a
// still-encoded column (narrowed reports that one ran); then copies each
// projected column, or gathers it from its payload. A projected column
// still encoded with no kernel to narrow the rows returns decode: the
// caller decodes and installs the columns outside the lock and reads
// again. chunk is nil when no row survives.
//
// Kernels are exact for the conjuncts they apply (encSelect),
// unsupported conjuncts are not applied, and the caller's row-level
// filter still evaluates the full predicate — so the surviving rows,
// their order and their chunk boundaries are the same with kernels on or
// off, at every thread count.
func (s *segReader) read(seg *segment, base int64, maxRows int, kernels bool) (chunk *vector.Chunk, narrowed, decode bool, err error) {
	seg.mu.RLock()
	defer seg.mu.RUnlock()

	n := min(seg.n, maxRows)
	s.visible(seg, n)
	if kernels && seg.enc != nil {
		narrowed = s.narrow(seg, n)
	}
	if !narrowed {
		for _, c := range s.cols {
			if seg.cols[c] == nil {
				return nil, false, true, nil
			}
		}
	}
	if len(s.sel) == 0 {
		return nil, narrowed, false, nil
	}

	chunk = vector.NewChunk(s.typs)
	for oi, c := range s.cols {
		switch {
		case seg.cols[c] == nil:
			if s.codes == nil {
				s.codes = make([]int64, SegRows)
			}
			if err := gatherSeg(seg.enc[c], s.t.typs[c], s.sel, chunk.Cols[oi], s.codes); err != nil {
				return nil, narrowed, false, fmt.Errorf("table: column %d: %w", c, err)
			}
		case len(s.sel) == n: // every row visible: s.sel is [0, n)
			chunk.Cols[oi].AppendRange(seg.cols[c], 0, n)
		default:
			seg.cols[c].CompactInto(chunk.Cols[oi], s.sel)
		}
	}
	chunk.SetLen(len(s.sel))
	s.applyUndo(seg, chunk)
	s.fillRowIDs(chunk, base)
	return chunk, narrowed, false, nil
}

// applyUndo rewrites chunk cells whose current value this snapshot must
// not see back to their undo-chain versions. Caller holds seg.mu and
// has chunk rows parallel to s.sel.
func (s *segReader) applyUndo(seg *segment, chunk *vector.Chunk) {
	posBuilt := false
	for oi, c := range s.cols {
		for node := seg.updates[c]; node != nil; node = node.next {
			if s.tx.Sees(node.stamp.Load()) {
				continue
			}
			if !posBuilt {
				if s.pos == nil {
					s.pos = make([]int32, SegRows)
				}
				for i := range s.pos {
					s.pos[i] = -1
				}
				for outIdx, r := range s.sel {
					s.pos[r] = int32(outIdx)
				}
				posBuilt = true
			}
			for j, r := range node.rows {
				if p := s.pos[r]; p >= 0 {
					chunk.Cols[oi].Set(int(p), node.old.Get(j))
				}
			}
		}
	}
}

// fillRowIDs writes the synthetic row-id column when requested.
func (s *segReader) fillRowIDs(chunk *vector.Chunk, base int64) {
	if !s.rowIDs {
		return
	}
	ridCol := chunk.Cols[len(s.cols)]
	for outIdx, r := range s.sel {
		ridCol.I64[outIdx] = base + int64(r)
	}
}

// resolveColumns expands a nil column list to all columns and validates.
func (t *DataTable) resolveColumns(cols []int) ([]int, error) {
	if cols == nil {
		cols = make([]int, len(t.typs))
		for i := range cols {
			cols[i] = i
		}
	}
	for _, c := range cols {
		if c < 0 || c >= len(t.typs) {
			return nil, fmt.Errorf("table: scan of column %d of %d-column table", c, len(t.typs))
		}
	}
	return cols, nil
}
