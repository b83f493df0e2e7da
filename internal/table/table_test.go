package table

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

func intChunk(vals ...int64) *vector.Chunk {
	c := vector.NewChunk([]types.Type{types.BigInt})
	for _, v := range vals {
		c.AppendRow(types.NewBigInt(v))
	}
	return c
}

func rangeChunk(n int) *vector.Chunk {
	c := vector.NewChunk([]types.Type{types.BigInt})
	for i := 0; i < n; i++ {
		c.AppendRow(types.NewBigInt(int64(i)))
	}
	return c
}

func scanAll(t *testing.T, dt *DataTable, tx *txn.Transaction, withRowIDs bool) [][]int64 {
	t.Helper()
	src, err := dt.NewMorselSource(tx, ScanOptions{WithRowIDs: withRowIDs})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sc := src.Worker()
	var out [][]int64
	for {
		chunk, err := sc.NextChunk()
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			return out
		}
		for r := 0; r < chunk.Len(); r++ {
			row := make([]int64, chunk.NumCols())
			for c := 0; c < chunk.NumCols(); c++ {
				if chunk.Cols[c].IsNull(r) {
					row[c] = -1 << 62
				} else {
					row[c] = chunk.Cols[c].I64[r]
				}
			}
			out = append(out, row)
		}
	}
}

func sumCol(t *testing.T, dt *DataTable, tx *txn.Transaction) int64 {
	t.Helper()
	var sum int64
	for _, row := range scanAll(t, dt, tx, false) {
		if row[0] != -1<<62 {
			sum += row[0]
		}
	}
	return sum
}

func TestAppendVisibility(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)

	writer := mgr.Begin()
	if err := dt.Append(writer, intChunk(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	// Uncommitted rows: invisible to others, visible to the writer.
	other := mgr.Begin()
	if n := dt.CountVisible(other); n != 0 {
		t.Fatalf("dirty read: %d rows", n)
	}
	if n := dt.CountVisible(writer); n != 3 {
		t.Fatalf("own rows invisible: %d", n)
	}
	if _, err := mgr.Commit(writer); err != nil {
		t.Fatal(err)
	}
	// Old snapshot still sees nothing; a new one sees all.
	if n := dt.CountVisible(other); n != 0 {
		t.Fatalf("snapshot moved: %d", n)
	}
	fresh := mgr.Begin()
	if n := dt.CountVisible(fresh); n != 3 {
		t.Fatalf("committed rows missing: %d", n)
	}
}

func TestAppendRollback(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	writer := mgr.Begin()
	dt.Append(writer, intChunk(1, 2, 3))
	mgr.Rollback(writer)
	fresh := mgr.Begin()
	if n := dt.CountVisible(fresh); n != 0 {
		t.Fatalf("aborted rows visible: %d", n)
	}
	if !dt.LayoutDiverged() {
		t.Fatal("aborted append should diverge layout")
	}
}

func TestUpdateSnapshotReconstruction(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, intChunk(10, 20, 30))
	mgr.Commit(setup)

	oldSnap := mgr.Begin() // sees 10+20+30 = 60

	writer := mgr.Begin()
	vals := vector.New(types.BigInt, 0)
	vals.Append(types.NewBigInt(100))
	if _, err := dt.Update(writer, 0, []int64{1}, vals); err != nil {
		t.Fatal(err)
	}
	// Writer sees its own update; old snapshot does not.
	if got := sumCol(t, dt, writer); got != 140 {
		t.Fatalf("writer sum = %d, want 140", got)
	}
	if got := sumCol(t, dt, oldSnap); got != 60 {
		t.Fatalf("old snapshot sum = %d, want 60", got)
	}
	mgr.Commit(writer)
	if got := sumCol(t, dt, oldSnap); got != 60 {
		t.Fatalf("old snapshot moved after commit: %d", got)
	}
	fresh := mgr.Begin()
	if got := sumCol(t, dt, fresh); got != 140 {
		t.Fatalf("fresh sum = %d, want 140", got)
	}
}

func TestUpdateRollbackRestoresValues(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, intChunk(5, 6))
	mgr.Commit(setup)

	writer := mgr.Begin()
	vals := vector.New(types.BigInt, 0)
	vals.Append(types.NewBigInt(999))
	vals.Append(types.NewBigInt(888))
	dt.Update(writer, 0, []int64{0, 1}, vals)
	mgr.Rollback(writer)

	fresh := mgr.Begin()
	rows := scanAll(t, dt, fresh, false)
	if rows[0][0] != 5 || rows[1][0] != 6 {
		t.Fatalf("rollback failed: %v", rows)
	}
}

func TestWriteWriteConflictOnOverlap(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, intChunk(1, 2, 3, 4))
	mgr.Commit(setup)

	t1 := mgr.Begin()
	t2 := mgr.Begin()
	one := vector.New(types.BigInt, 0)
	one.Append(types.NewBigInt(11))
	if _, err := dt.Update(t1, 0, []int64{1}, one); err != nil {
		t.Fatal(err)
	}
	// Disjoint rows: no conflict.
	two := vector.New(types.BigInt, 0)
	two.Append(types.NewBigInt(22))
	if _, err := dt.Update(t2, 0, []int64{2}, two); err != nil {
		t.Fatalf("disjoint update conflicted: %v", err)
	}
	// Overlapping row: conflict.
	tri := vector.New(types.BigInt, 0)
	tri.Append(types.NewBigInt(33))
	if _, err := dt.Update(t2, 0, []int64{1}, tri); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("expected conflict, got %v", err)
	}
	mgr.Commit(t1)
	mgr.Commit(t2)
	fresh := mgr.Begin()
	rows := scanAll(t, dt, fresh, false)
	want := fmt.Sprint([][]int64{{1}, {11}, {22}, {4}})
	if fmt.Sprint(rows) != want {
		t.Fatalf("got %v want %v", rows, want)
	}
}

func TestConflictWithCommittedNewerVersion(t *testing.T) {
	// First-updater-wins also applies to already-committed updates
	// newer than the transaction's snapshot.
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, intChunk(1))
	mgr.Commit(setup)

	early := mgr.Begin() // snapshot before the next commit
	late := mgr.Begin()
	v := vector.New(types.BigInt, 0)
	v.Append(types.NewBigInt(2))
	dt.Update(late, 0, []int64{0}, v)
	mgr.Commit(late)

	v2 := vector.New(types.BigInt, 0)
	v2.Append(types.NewBigInt(3))
	if _, err := dt.Update(early, 0, []int64{0}, v2); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("lost update allowed: %v", err)
	}
}

func TestDeleteVisibilityAndConflict(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, intChunk(1, 2, 3))
	mgr.Commit(setup)

	snap := mgr.Begin()
	deleter := mgr.Begin()
	if n, err := dt.Delete(deleter, []int64{1}); err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	if n := dt.CountVisible(snap); n != 3 {
		t.Fatalf("uncommitted delete visible: %d", n)
	}
	if n := dt.CountVisible(deleter); n != 2 {
		t.Fatalf("own delete invisible: %d", n)
	}
	// Concurrent delete of the same row conflicts.
	other := mgr.Begin()
	if _, err := dt.Delete(other, []int64{1}); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("double delete allowed: %v", err)
	}
	mgr.Commit(deleter)
	// Deleting an already-visible-deleted row is a no-op.
	fresh := mgr.Begin()
	if n, err := dt.Delete(fresh, []int64{1}); err != nil || n != 0 {
		t.Fatalf("redelete: %d %v", n, err)
	}
}

func TestDeleteRollback(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, intChunk(7))
	mgr.Commit(setup)
	d := mgr.Begin()
	dt.Delete(d, []int64{0})
	mgr.Rollback(d)
	fresh := mgr.Begin()
	if n := dt.CountVisible(fresh); n != 1 {
		t.Fatalf("rolled-back delete stuck: %d rows", n)
	}
}

func TestUpdateOfDeletedRowConflicts(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, intChunk(1))
	mgr.Commit(setup)
	deleter := mgr.Begin()
	dt.Delete(deleter, []int64{0})
	updater := mgr.Begin()
	v := vector.New(types.BigInt, 0)
	v.Append(types.NewBigInt(9))
	if _, err := dt.Update(updater, 0, []int64{0}, v); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("update of concurrently deleted row: %v", err)
	}
}

func TestMultiSegmentAppendAndRowIDs(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, rangeChunk(SegRows*2+100)) // spans 3 segments
	mgr.Commit(setup)

	fresh := mgr.Begin()
	rows := scanAll(t, dt, fresh, true)
	if len(rows) != SegRows*2+100 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, row := range rows {
		if row[1] != int64(i) {
			t.Fatalf("row %d has rowid %d", i, row[1])
		}
		if row[0] != int64(i%vector.ChunkCapacity+((i/vector.ChunkCapacity)*vector.ChunkCapacity))%int64(SegRows*2+100) && false {
			t.Fatal("unreachable")
		}
	}
}

func TestColumnGranularUpdateLeavesOthersUntouched(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt, types.BigInt, types.BigInt}, nil)
	setup := mgr.Begin()
	c := vector.NewChunk(dt.Types())
	for i := 0; i < 10; i++ {
		c.AppendRow(types.NewBigInt(int64(i)), types.NewBigInt(int64(i*10)), types.NewBigInt(int64(i*100)))
	}
	dt.Append(setup, c)
	mgr.Commit(setup)

	w := mgr.Begin()
	v := vector.New(types.BigInt, 0)
	v.Append(types.NewBigInt(-1))
	dt.Update(w, 1, []int64{5}, v)
	mgr.Commit(w)

	if !dt.ColDirty(1) || dt.ColDirty(0) || dt.ColDirty(2) {
		t.Fatal("dirty flags wrong: only column 1 was updated")
	}
}

func TestVacuumPrunesChains(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, intChunk(1))
	mgr.Commit(setup)

	for i := 0; i < 10; i++ {
		w := mgr.Begin()
		v := vector.New(types.BigInt, 0)
		v.Append(types.NewBigInt(int64(i)))
		if _, err := dt.Update(w, 0, []int64{0}, v); err != nil {
			t.Fatal(err)
		}
		mgr.Commit(w)
	}
	if n := chainLen(dt, 0); n != 10 {
		t.Fatalf("chain length %d, want 10", n)
	}
	dt.Vacuum(mgr.OldestVisibleTS())
	if n := chainLen(dt, 0); n != 0 {
		t.Fatalf("chain length after vacuum %d, want 0", n)
	}
	fresh := mgr.Begin()
	if got := sumCol(t, dt, fresh); got != 9 {
		t.Fatalf("value lost in vacuum: %d", got)
	}
}

// TestVacuumKeepsNeededVersions: versions an active snapshot still needs
// survive vacuum.
func TestVacuumKeepsNeededVersions(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, intChunk(1))
	mgr.Commit(setup)

	old := mgr.Begin() // holds the old snapshot
	w := mgr.Begin()
	v := vector.New(types.BigInt, 0)
	v.Append(types.NewBigInt(2))
	dt.Update(w, 0, []int64{0}, v)
	mgr.Commit(w)

	dt.Vacuum(mgr.OldestVisibleTS())
	if got := sumCol(t, dt, old); got != 1 {
		t.Fatalf("old snapshot sees %d after vacuum, want 1", got)
	}
	mgr.Rollback(old)
	dt.Vacuum(mgr.OldestVisibleTS())
	if n := chainLen(dt, 0); n != 0 {
		t.Fatalf("chain not pruned after snapshot release: %d", n)
	}
}

func chainLen(dt *DataTable, col int) int {
	dt.mu.RLock()
	defer dt.mu.RUnlock()
	n := 0
	for _, s := range dt.segs {
		s.mu.RLock()
		for node := s.updates[col]; node != nil; node = node.next {
			n++
		}
		s.mu.RUnlock()
	}
	return n
}

func TestSerializeColumnRoundTrip(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	setup := mgr.Begin()
	dt.Append(setup, rangeChunk(SegRows+500))
	mgr.Commit(setup)
	// Delete a few rows: they must not be serialized.
	d := mgr.Begin()
	dt.Delete(d, []int64{0, 1, 2})
	mgr.Commit(d)

	snap := mgr.Begin()
	payload, rows, stats, err := dt.SerializeColumn(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows != int64(SegRows+500-3) {
		t.Fatalf("serialized %d rows", rows)
	}
	if len(stats) != 2 || !stats[0].Valid || !stats[0].HasMinMax {
		t.Fatalf("missing serialized stats: %+v", stats)
	}
	if stats[0].Min.I64 != 3 || stats[1].Max.I64 != int64(SegRows+500-1) {
		t.Fatalf("stats bounds wrong: %+v", stats)
	}
	segs, bytes, err := DecodeColumnSegments(payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 {
		t.Fatal("zero byte estimate")
	}
	total := 0
	for _, sv := range segs {
		total += sv.Len()
	}
	if int64(total) != rows {
		t.Fatalf("decoded %d rows, want %d", total, rows)
	}
	if segs[0].I64[0] != 3 {
		t.Fatalf("first surviving row = %d, want 3", segs[0].I64[0])
	}
}

func TestScanProjection(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt, types.Varchar}, nil)
	setup := mgr.Begin()
	c := vector.NewChunk(dt.Types())
	c.AppendRow(types.NewBigInt(1), types.NewVarchar("a"))
	dt.Append(setup, c)
	mgr.Commit(setup)

	fresh := mgr.Begin()
	src, err := dt.NewMorselSource(fresh, ScanOptions{Columns: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	chunk, err := src.Worker().NextChunk()
	if err != nil || chunk == nil {
		t.Fatal(err)
	}
	if chunk.NumCols() != 1 || chunk.Cols[0].Str[0] != "a" {
		t.Fatalf("projection wrong: %v", chunk.Row(0))
	}
}

func TestScanInvalidColumn(t *testing.T) {
	dt := New([]types.Type{types.BigInt}, nil)
	mgr := txn.NewManager(nil)
	if _, err := dt.NewMorselSource(mgr.Begin(), ScanOptions{Columns: []int{5}}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}
