package table

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
)

// TestMorselSourceCoversEverySegmentOnce: concurrent workers must
// jointly claim each morsel exactly once and reconstruct the same rows
// a single worker sees, and the source's counts add up theirs.
func TestMorselSourceCoversEverySegmentOnce(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	writer := mgr.Begin()
	const rows = 10*SegRows + 17
	for base := 0; base < rows; base += SegRows {
		n := SegRows
		if rows-base < n {
			n = rows - base
		}
		c := rangeChunk(n)
		for r := 0; r < n; r++ {
			c.Cols[0].I64[r] = int64(base + r)
		}
		if err := dt.Append(writer, c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mgr.Commit(writer); err != nil {
		t.Fatal(err)
	}

	reader := mgr.Begin()
	src, err := dt.NewMorselSource(reader, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if got, want := src.NumMorsels(), 11; got != want {
		t.Fatalf("NumMorsels = %d, want %d", got, want)
	}

	var mu sync.Mutex
	seqs := map[int]int{}
	var vals []int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms := src.Worker()
			for {
				seq, chunk, err := ms.Next()
				if err != nil {
					t.Error(err)
					return
				}
				if seq < 0 {
					return
				}
				mu.Lock()
				seqs[seq]++
				if chunk != nil {
					vals = append(vals, chunk.Cols[0].I64[:chunk.Len()]...)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if len(seqs) != src.NumMorsels() {
		t.Fatalf("claimed %d distinct morsels, want %d", len(seqs), src.NumMorsels())
	}
	for seq, n := range seqs {
		if n != 1 {
			t.Fatalf("morsel %d claimed %d times", seq, n)
		}
	}
	if len(vals) != rows {
		t.Fatalf("scanned %d rows, want %d", len(vals), rows)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("row %d = %d", i, v)
		}
	}
	if got, want := src.Counts(), (ScanCounts{Scanned: 11, DecodedRows: rows, SelectedRows: rows}); got != want {
		t.Fatalf("Counts = %+v, want %+v", got, want)
	}

	// A zone filter refutes every segment past the second; two workers'
	// counts add up.
	lt := ZoneFilter{Col: 0, Op: ZoneLt, Val: types.NewBigInt(2 * SegRows)}
	fsrc, err := dt.NewMorselSource(reader, ScanOptions{ZoneFilters: []ZoneFilter{lt}})
	if err != nil {
		t.Fatal(err)
	}
	defer fsrc.Close()
	a, b := fsrc.Worker(), fsrc.Worker()
	for done := false; !done; {
		done = true
		for _, w := range []*MorselScanner{a, b} {
			if seq, _, err := w.Next(); err != nil {
				t.Fatal(err)
			} else if seq >= 0 {
				done = false
			}
		}
	}
	if got, want := fsrc.Counts(), (ScanCounts{Scanned: 2, Skipped: 9, DecodedRows: 2 * SegRows, SelectedRows: 2 * SegRows}); got != want {
		t.Fatalf("filtered Counts = %+v, want %+v", got, want)
	}
}

// TestMorselSourceSnapshotsSegments: segments appended after the source
// was created are not handed out, and MVCC visibility still applies.
func TestMorselSourceSnapshotsSegments(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	w1 := mgr.Begin()
	dt.Append(w1, intChunk(1, 2, 3))
	mgr.Commit(w1)

	reader := mgr.Begin()
	src, err := dt.NewMorselSource(reader, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// Fill the first segment and beyond after the snapshot: the extra
	// segments must not appear, and the newer rows in the first segment
	// are invisible to the reader's snapshot anyway.
	w2 := mgr.Begin()
	dt.Append(w2, rangeChunk(2*SegRows))
	mgr.Commit(w2)

	ms := src.Worker()
	var total int
	for {
		seq, chunk, err := ms.Next()
		if err != nil {
			t.Fatal(err)
		}
		if seq < 0 {
			break
		}
		if chunk != nil {
			total += chunk.Len()
		}
	}
	if total != 3 {
		t.Fatalf("snapshot scan saw %d rows, want 3", total)
	}
}
