package extsort

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/faults"
	"repro/internal/types"
	"repro/internal/vector"
)

func chunkOf(vals ...int64) *vector.Chunk {
	c := vector.NewChunk([]types.Type{types.BigInt})
	for _, v := range vals {
		c.AppendRow(types.NewBigInt(v))
	}
	return c
}

func drainSorted(t *testing.T, it *Iterator) []int64 {
	t.Helper()
	defer it.Close()
	var out []int64
	for {
		c, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			return out
		}
		out = append(out, c.Cols[0].I64[:c.Len()]...)
	}
}

func TestInMemorySort(t *testing.T) {
	s := NewSorter([]types.Type{types.BigInt}, []Key{{Col: 0}}, 0, t.TempDir())
	s.Add(chunkOf(5, 1, 9))
	s.Add(chunkOf(3, 7))
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got := drainSorted(t, it)
	want := []int64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	if s.SpilledBytes() != 0 {
		t.Fatal("unexpected spill")
	}
}

func TestSpillingSortMatchesStdSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 50_000
	ref := make([]int64, 0, n)
	// Tiny budget forces several runs to disk.
	s := NewSorter([]types.Type{types.BigInt}, []Key{{Col: 0}}, 64<<10, t.TempDir())
	chunk := vector.NewChunk([]types.Type{types.BigInt})
	for i := 0; i < n; i++ {
		v := rng.Int63n(1 << 40)
		ref = append(ref, v)
		chunk.AppendRow(types.NewBigInt(v))
		if chunk.Len() == vector.ChunkCapacity {
			if err := s.Add(chunk); err != nil {
				t.Fatal(err)
			}
			chunk = vector.NewChunk([]types.Type{types.BigInt})
		}
	}
	s.Add(chunk)
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if s.SpilledBytes() == 0 {
		t.Fatal("expected spilling with 64KB budget")
	}
	got := drainSorted(t, it)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	if len(got) != len(ref) {
		t.Fatalf("%d rows, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("row %d: %d != %d", i, got[i], ref[i])
		}
	}
}

func TestDescAndNullOrdering(t *testing.T) {
	c := vector.NewChunk([]types.Type{types.BigInt})
	c.AppendRow(types.NewBigInt(1))
	c.AppendRow(types.NewNull(types.BigInt))
	c.AppendRow(types.NewBigInt(3))

	s := NewSorter([]types.Type{types.BigInt}, []Key{{Col: 0, Desc: true, NullsFirst: true}}, 0, t.TempDir())
	s.Add(c)
	it, _ := s.Finish()
	defer it.Close()
	out, err := it.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cols[0].IsNull(0) || out.Cols[0].I64[1] != 3 || out.Cols[0].I64[2] != 1 {
		t.Fatalf("got %v %v %v", out.Row(0), out.Row(1), out.Row(2))
	}
}

func TestMultiKeySort(t *testing.T) {
	c := vector.NewChunk([]types.Type{types.Varchar, types.BigInt})
	c.AppendRow(types.NewVarchar("b"), types.NewBigInt(1))
	c.AppendRow(types.NewVarchar("a"), types.NewBigInt(2))
	c.AppendRow(types.NewVarchar("a"), types.NewBigInt(1))
	s := NewSorter(c.Types(), []Key{{Col: 0}, {Col: 1, Desc: true}}, 0, t.TempDir())
	s.Add(c)
	it, _ := s.Finish()
	defer it.Close()
	out, _ := it.Next()
	want := [][2]string{{"a", "2"}, {"a", "1"}, {"b", "1"}}
	for i, w := range want {
		row := out.Row(i)
		if row[0].Str != w[0] || row[1].String() != w[1] {
			t.Fatalf("row %d: %v, want %v", i, row, w)
		}
	}
}

func TestStableForEqualKeys(t *testing.T) {
	// Payload order of equal keys follows insertion (stable sort).
	c := vector.NewChunk([]types.Type{types.BigInt, types.BigInt})
	for i := 0; i < 10; i++ {
		c.AppendRow(types.NewBigInt(42), types.NewBigInt(int64(i)))
	}
	s := NewSorter(c.Types(), []Key{{Col: 0}}, 0, t.TempDir())
	s.Add(c)
	it, _ := s.Finish()
	defer it.Close()
	out, _ := it.Next()
	for i := 0; i < 10; i++ {
		if out.Cols[1].I64[i] != int64(i) {
			t.Fatalf("not stable at %d: %d", i, out.Cols[1].I64[i])
		}
	}
}

func TestPoolAccountingReleases(t *testing.T) {
	pool := buffer.NewPool(0, nil)
	s := NewSorter([]types.Type{types.BigInt}, []Key{{Col: 0}}, 16<<10, t.TempDir())
	s.SetPool(pool)
	for i := 0; i < 50; i++ {
		c := vector.NewChunk([]types.Type{types.BigInt})
		for j := 0; j < 1024; j++ {
			c.AppendRow(types.NewBigInt(int64(i*1024 + j)))
		}
		if err := s.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	drainSorted(t, it)
	if used := pool.Used(); used != 0 {
		t.Fatalf("pool leak: %d bytes still reserved", used)
	}
}

// TestKeyBufferIsReserved: the encoded keys are inside the pool
// reservation and the budget, not on top of them — an in-memory sort
// holds its rows plus one key per row until Close, a budgeted sorter
// spills at the budget counting both, and a pool with room for the rows
// but not their keys makes Finish spill the buffer instead of failing.
func TestKeyBufferIsReserved(t *testing.T) {
	typs := []types.Type{types.BigInt}
	keys := []Key{{Col: 0}}
	const rows = 4 * vector.ChunkCapacity
	fill := func(s *Sorter) {
		t.Helper()
		for i := 0; i < rows/vector.ChunkCapacity; i++ {
			c := vector.NewChunk(typs)
			for j := 0; j < vector.ChunkCapacity; j++ {
				c.AppendRow(types.NewBigInt(int64((i*vector.ChunkCapacity + j) * 7919 % rows)))
			}
			if err := s.Add(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	rowBytes := int64(rows * 8)
	keyBytes := int64(rows) * int64(newKeyLayout(typs, keys).stride)

	t.Run("in-memory", func(t *testing.T) {
		pool := buffer.NewPool(0, nil)
		s := NewSorter(typs, keys, 0, t.TempDir())
		s.SetPool(pool)
		fill(s)
		if used := pool.Used(); used != rowBytes {
			t.Fatalf("buffered rows reserve %d bytes, want %d", used, rowBytes)
		}
		it, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if used := pool.Used(); used != rowBytes+keyBytes {
			t.Fatalf("sorted run reserves %d bytes, want rows %d + keys %d", used, rowBytes, keyBytes)
		}
		it.Close()
		if used := pool.Used(); used != 0 {
			t.Fatalf("Close left %d bytes reserved", used)
		}
	})
	t.Run("budget-counts-keys", func(t *testing.T) {
		// The rows alone fit this budget; rows plus keys do not.
		s := NewSorter(typs, keys, rowBytes+keyBytes/2, t.TempDir())
		fill(s)
		defer s.Close()
		if s.SpilledBytes() == 0 {
			t.Fatal("a budget below rows+keys did not spill")
		}
	})
	t.Run("pool-held-by-others", func(t *testing.T) {
		// Another owner holds the whole pool: every Add finds no room even
		// with nothing of its own to spill, writes the chunk out as a run
		// of its own, and the sort still completes.
		pool := buffer.NewPool(1<<10, nil)
		if err := pool.Reserve(1 << 10); err != nil {
			t.Fatal(err)
		}
		s := NewSorter(typs, keys, 0, t.TempDir())
		s.SetPool(pool)
		fill(s)
		if len(s.runs) != rows/vector.ChunkCapacity {
			t.Fatalf("%d runs, want one per chunk", len(s.runs))
		}
		it, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got := drainSorted(t, it)
		if len(got) != rows || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("sort under a full pool returned %d rows, or unsorted", len(got))
		}
		if used := pool.Used(); used != 1<<10 {
			t.Fatalf("pool holds %d bytes, want only the other owner's 1024", used)
		}
	})
	t.Run("no-room-for-keys", func(t *testing.T) {
		pool := buffer.NewPool(rowBytes+keyBytes/2, nil)
		s := NewSorter(typs, keys, 0, t.TempDir())
		s.SetPool(pool)
		fill(s)
		it, err := s.Finish()
		if err != nil {
			t.Fatalf("Finish with no room for the key buffer: %v", err)
		}
		if s.SpilledBytes() == 0 {
			t.Fatal("Finish kept the run in memory without reserving its keys")
		}
		got := drainSorted(t, it)
		if len(got) != rows || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("spilled fallback returned %d rows, or unsorted", len(got))
		}
		s.Close()
		if used := pool.Used(); used != 0 {
			t.Fatalf("fallback left %d bytes reserved", used)
		}
	})
}

// TestSpillDifferentialMatchesInMemory: the multi-run disk merge must be
// row-for-row identical to the unconstrained in-memory sort, including
// the placement of duplicate keys (payload column asserts stability).
func TestSpillDifferentialMatchesInMemory(t *testing.T) {
	typs := []types.Type{types.BigInt, types.BigInt}
	keys := []Key{{Col: 0}}
	gen := func() []*vector.Chunk {
		g := rand.New(rand.NewSource(11))
		var chunks []*vector.Chunk
		for len(chunks) < 40 {
			c := vector.NewChunk(typs)
			for c.Len() < vector.ChunkCapacity {
				// Tiny key domain: duplicates everywhere.
				c.AppendRow(types.NewBigInt(g.Int63n(50)), types.NewBigInt(int64(len(chunks)*vector.ChunkCapacity+c.Len())))
			}
			chunks = append(chunks, c)
		}
		return chunks
	}
	drain2 := func(it *Iterator) [][2]int64 {
		defer it.Close()
		var out [][2]int64
		for {
			c, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if c == nil {
				return out
			}
			for r := 0; r < c.Len(); r++ {
				out = append(out, [2]int64{c.Cols[0].I64[r], c.Cols[1].I64[r]})
			}
		}
	}

	mem := NewSorter(typs, keys, 0, t.TempDir())
	for _, c := range gen() {
		if err := mem.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	memIt, err := mem.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := drain2(memIt)

	// 8KB budget: dozens of runs, multi-level disk merging.
	spill := NewSorter(typs, keys, 8<<10, t.TempDir())
	for _, c := range gen() {
		if err := spill.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	spillIt, err := spill.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if spill.SpilledBytes() == 0 {
		t.Fatal("8KB budget did not spill")
	}
	got := drain2(spillIt)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestMergeFinishMultiProducer: N independent sorters (the parallel
// sort's per-worker runs) merged by MergeFinish must equal one sorter
// fed everything — mixing spilled and purely in-memory producers.
func TestMergeFinishMultiProducer(t *testing.T) {
	typs := []types.Type{types.BigInt}
	keys := []Key{{Col: 0}}
	rng := rand.New(rand.NewSource(5))
	const n = 40_000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
	}

	ref := NewSorter(typs, keys, 0, t.TempDir())
	producers := make([]*Sorter, 4)
	for i := range producers {
		budget := int64(0)
		if i%2 == 0 {
			budget = 16 << 10 // half the producers spill, half stay in memory
		}
		producers[i] = NewSorter(typs, keys, budget, t.TempDir())
	}
	for start := 0; start < n; start += vector.ChunkCapacity {
		end := start + vector.ChunkCapacity
		if end > n {
			end = n
		}
		c := vector.NewChunk(typs)
		for _, v := range vals[start:end] {
			c.AppendRow(types.NewBigInt(v))
		}
		if err := ref.Add(c); err != nil {
			t.Fatal(err)
		}
		if err := producers[(start/vector.ChunkCapacity)%len(producers)].Add(c); err != nil {
			t.Fatal(err)
		}
	}
	refIt, err := ref.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := drainSorted(t, refIt)
	merged, err := MergeFinish(producers)
	if err != nil {
		t.Fatal(err)
	}
	got := drainSorted(t, merged)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestIteratorCloseReleasesReservations: abandoning the stream early —
// both an unspilled sort and mid-merge — must return every buffered-row
// reservation to the pool.
func TestIteratorCloseReleasesReservations(t *testing.T) {
	fill := func(s *Sorter) {
		for i := 0; i < 30; i++ {
			c := vector.NewChunk([]types.Type{types.BigInt})
			for j := 0; j < vector.ChunkCapacity; j++ {
				c.AppendRow(types.NewBigInt(int64(i*vector.ChunkCapacity + j)))
			}
			if err := s.Add(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("in-memory", func(t *testing.T) {
		pool := buffer.NewPool(0, nil)
		s := NewSorter([]types.Type{types.BigInt}, []Key{{Col: 0}}, 0, t.TempDir())
		s.SetPool(pool)
		fill(s)
		it, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(); err != nil { // partially consumed
			t.Fatal(err)
		}
		it.Close()
		if used := pool.Used(); used != 0 {
			t.Fatalf("early Close leaked %d bytes", used)
		}
		it.Close() // idempotent
		if used := pool.Used(); used != 0 {
			t.Fatalf("double Close went negative/positive: %d", used)
		}
	})
	t.Run("merge", func(t *testing.T) {
		pool := buffer.NewPool(0, nil)
		s := NewSorter([]types.Type{types.BigInt}, []Key{{Col: 0}}, 64<<10, t.TempDir())
		s.SetPool(pool)
		fill(s)
		it, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if s.SpilledBytes() == 0 {
			t.Fatal("expected spill")
		}
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		if used := pool.Used(); used != 0 {
			t.Fatalf("early Close after spill leaked %d bytes", used)
		}
	})
	t.Run("merge-finish", func(t *testing.T) {
		pool := buffer.NewPool(0, nil)
		producers := make([]*Sorter, 3)
		for i := range producers {
			producers[i] = NewSorter([]types.Type{types.BigInt}, []Key{{Col: 0}}, 0, t.TempDir())
			producers[i].SetPool(pool)
			fill(producers[i])
		}
		it, err := MergeFinish(producers)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		if used := pool.Used(); used != 0 {
			t.Fatalf("merged Close leaked %d bytes", used)
		}
	})
}

// TestNaNSortsGreatest: the total FP order places NaN above +Inf in ASC
// sorts (and therefore first in DESC), deterministically.
func TestNaNSortsGreatest(t *testing.T) {
	c := vector.NewChunk([]types.Type{types.Double})
	for _, v := range []float64{5, math.NaN(), math.Inf(1), -3, math.Inf(-1), math.NaN()} {
		c.AppendRow(types.NewDouble(v))
	}
	s := NewSorter(c.Types(), []Key{{Col: 0}}, 0, t.TempDir())
	s.Add(c)
	it, _ := s.Finish()
	defer it.Close()
	out, err := it.Next()
	if err != nil {
		t.Fatal(err)
	}
	got := out.Cols[0].F64[:out.Len()]
	if !math.IsInf(got[0], -1) || got[1] != -3 || got[2] != 5 || !math.IsInf(got[3], 1) ||
		!math.IsNaN(got[4]) || !math.IsNaN(got[5]) {
		t.Fatalf("ASC order with NaN: %v", got)
	}
}

func TestEmptySorter(t *testing.T) {
	s := NewSorter([]types.Type{types.BigInt}, []Key{{Col: 0}}, 0, t.TempDir())
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	c, err := it.Next()
	if err != nil || c != nil {
		t.Fatalf("empty sorter produced %v, %v", c, err)
	}
}

// ---- partitioned merge (loser tree + key-range split) ----

// fanInSorters builds k producers over a duplicate-heavy, NULL- and
// NaN-bearing two-key dataset with a unique third column, splitting
// rows round-robin. Tiny budgets mean dozens of spilled runs; odd
// producers stay fully in memory, so the merge mixes cursor kinds.
func fanInSorters(t *testing.T, k, rows int, budget int64) []*Sorter {
	t.Helper()
	typs := []types.Type{types.BigInt, types.Double, types.BigInt}
	keys := []Key{{Col: 0}, {Col: 1, Desc: true, NullsFirst: true}, {Col: 2}}
	producers := make([]*Sorter, k)
	for i := range producers {
		b := budget
		if i%2 == 1 {
			b = 0 // in-memory producer
		}
		producers[i] = NewSorter(typs, keys, b, t.TempDir())
	}
	chunks := make([]*vector.Chunk, k)
	for i := range chunks {
		chunks[i] = vector.NewChunk(typs)
	}
	for r := 0; r < rows; r++ {
		w := r % k
		c := chunks[w]
		kv := types.NewBigInt(int64(r % 7)) // heavy duplicates
		dv := types.NewDouble(float64((r * 13) % 5))
		switch r % 31 {
		case 0:
			kv = types.NewNull(types.BigInt)
		case 1:
			dv = types.NewNull(types.Double)
		case 2:
			dv = types.NewDouble(math.NaN())
		case 3:
			dv = types.NewDouble(math.Inf(1))
		}
		c.AppendRow(kv, dv, types.NewBigInt(int64(r)))
		if c.Len() == vector.ChunkCapacity {
			if err := producers[w].Add(c); err != nil {
				t.Fatal(err)
			}
			chunks[w] = vector.NewChunk(typs)
		}
	}
	for w, c := range chunks {
		if c.Len() > 0 {
			if err := producers[w].Add(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return producers
}

func drainRows(t *testing.T, it *Iterator) []string {
	t.Helper()
	out, _ := drainChunks(t, it)
	return out
}

// drainChunks drains it, returning its rows and the length of every
// chunk it emitted.
func drainChunks(t *testing.T, it *Iterator) (rows []string, lens []int) {
	t.Helper()
	for {
		c, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			return rows, lens
		}
		for r := 0; r < c.Len(); r++ {
			rows = append(rows, fmt.Sprint(c.Row(r)))
		}
		lens = append(lens, c.Len())
	}
}

// TestPartitionMergeMatchesSerial: splitting the merge into N ranges
// and concatenating the ranges must reproduce the serial loser-tree
// merge row for row and chunk for chunk — high fan-in (dozens of runs
// plus in-memory buffers), duplicate-heavy keys, NULLs, NaN, at widths
// 1/2/8. Width 1 (PartitionMerge declined) pins the fallback.
func TestPartitionMergeMatchesSerial(t *testing.T) {
	const rows = 30_000
	serial, err := MergeFinish(fanInSorters(t, 12, rows, 4<<10))
	if err != nil {
		t.Fatal(err)
	}
	want, wantLens := drainChunks(t, serial)
	serial.Close()
	if len(want) != rows {
		t.Fatalf("serial merge lost rows: %d", len(want))
	}
	for _, width := range []int{1, 2, 8} {
		it, err := MergeFinish(fanInSorters(t, 12, rows, 4<<10))
		if err != nil {
			t.Fatal(err)
		}
		parts, err := it.PartitionMerge(width, it.keys)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		var gotLens []int
		if parts == nil {
			if width >= 2 {
				t.Fatalf("width=%d: PartitionMerge declined", width)
			}
			got, gotLens = drainChunks(t, it)
		} else {
			if len(parts) < 2 || len(parts) > width {
				t.Fatalf("width=%d: %d ranges", width, len(parts))
			}
			for pi, p := range parts {
				r, lens := drainChunks(t, p)
				if len(r) == 0 {
					t.Fatalf("width=%d: range %d is empty", width, pi)
				}
				got = append(got, r...)
				gotLens = append(gotLens, lens...)
				p.Close()
			}
		}
		it.Close()
		if fmt.Sprint(gotLens) != fmt.Sprint(wantLens) {
			t.Fatalf("width=%d: chunk lengths %v, want %v", width, gotLens, wantLens)
		}
		if len(got) != len(want) {
			t.Fatalf("width=%d: %d rows, want %d", width, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("width=%d row %d: %s != %s", width, i, got[i], want[i])
			}
		}
	}
}

// TestPartitionMergeWindowPrefixBounds: cutting ranges on a key prefix
// (the window PARTITION BY columns) must keep all rows equal on the
// prefix inside one range.
func TestPartitionMergeWindowPrefixBounds(t *testing.T) {
	it, err := MergeFinish(fanInSorters(t, 8, 20_000, 8<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	prefix := it.keys[:1] // the 8-value (incl. NULL) leading key
	parts, err := it.PartitionMerge(8, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if parts == nil {
		t.Fatal("PartitionMerge declined on prefix bounds")
	}
	seen := map[string]int{} // leading key value -> range index
	for pi, p := range parts {
		for {
			c, err := p.Next()
			if err != nil {
				t.Fatal(err)
			}
			if c == nil {
				break
			}
			for r := 0; r < c.Len(); r++ {
				v := fmt.Sprint(c.Row(r)[0])
				if prev, ok := seen[v]; ok && prev != pi {
					t.Fatalf("prefix value %s straddles ranges %d and %d", v, prev, pi)
				}
				seen[v] = pi
			}
		}
		p.Close()
	}
	if len(seen) != 8 {
		t.Fatalf("saw %d distinct leading keys, want 8", len(seen))
	}
}

// TestPartitionMergeCapsAtChunkStart: when a range boundary falls on the
// first row of a spilled run's chunk — each prefix value here fills
// exactly one run chunk — the range before it must stop without loading
// that chunk, and the ranges together emit every row once, in order.
// Draining a range reads exactly the run chunks its rows lie in, less
// the one per run its clone loaded when PartitionMerge positioned it.
func TestPartitionMergeCapsAtChunkStart(t *testing.T) {
	typs := []types.Type{types.BigInt, types.BigInt}
	s := NewSorter(typs, []Key{{Col: 0}, {Col: 1}}, 0, t.TempDir())
	const groups = 8
	for g := range groups {
		c := vector.NewChunk(typs)
		for r := range vector.ChunkCapacity {
			c.AppendRow(types.NewBigInt(int64(g)), types.NewBigInt(int64(g*vector.ChunkCapacity+r)))
		}
		if err := s.Add(c); err != nil {
			t.Fatal(err)
		}
		if g%4 == 3 { // two runs of four one-group chunks
			if err := s.spill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	parts, err := it.PartitionMerge(4, it.keys[:1])
	if err != nil || len(parts) < 2 {
		t.Fatalf("PartitionMerge: %d ranges, %v", len(parts), err)
	}
	want := int64(0)
	for pi, p := range parts {
		before := runChunkReads.Load()
		chunks, runs := map[int64]bool{}, map[int64]bool{}
		for {
			c, err := p.Next()
			if err != nil {
				t.Fatal(err)
			}
			if c == nil {
				break
			}
			for _, v := range c.Cols[1].I64[:c.Len()] {
				if v != want {
					t.Fatalf("row %d: got %d", want, v)
				}
				want++
				g := v / vector.ChunkCapacity // one group per run chunk, four per run
				chunks[g], runs[g/4] = true, true
			}
		}
		if reads, inRange := runChunkReads.Load()-before, int64(len(chunks)-len(runs)); reads != inRange {
			t.Fatalf("range %d read %d run chunks while draining, want %d: its rows' chunks less its clones' first loads", pi, reads, inRange)
		}
		p.Close()
	}
	if want != groups*vector.ChunkCapacity {
		t.Fatalf("ranges emitted %d rows, want %d", want, groups*vector.ChunkCapacity)
	}
}

// fuzzSorters splits rows of fanInSorters' schema and keys among
// producers, the rng choosing each row's producer, a duplicate-heavy
// leading key with NULLs, a DOUBLE key with NULLs, NaN and +Inf, and
// each producer's budget (in memory, or spilling runs of a few chunks
// or of less than one).
func fuzzSorters(t *testing.T, seed int64, producers, rows int) []*Sorter {
	t.Helper()
	typs := []types.Type{types.BigInt, types.Double, types.BigInt}
	keys := []Key{{Col: 0}, {Col: 1, Desc: true, NullsFirst: true}, {Col: 2}}
	rng := rand.New(rand.NewSource(seed))
	dbls := []float64{0, 1, 2, math.NaN(), math.Inf(1)}
	dom := 1 + rng.Intn(12)
	out := make([]*Sorter, producers)
	chunks := make([]*vector.Chunk, producers)
	for i := range out {
		budget := []int64{0, 2 << 10, 8 << 10, 64 << 10}[rng.Intn(4)]
		out[i] = NewSorter(typs, keys, budget, t.TempDir())
		chunks[i] = vector.NewChunk(typs)
	}
	add := func(w int) {
		if err := out[w].Add(chunks[w]); err != nil {
			t.Fatal(err)
		}
		chunks[w] = vector.NewChunk(typs)
	}
	for r := range rows {
		kv, dv := types.NewBigInt(int64(rng.Intn(dom))), types.NewDouble(dbls[rng.Intn(len(dbls))])
		if rng.Intn(16) == 0 {
			kv = types.NewNull(types.BigInt)
		}
		if rng.Intn(16) == 0 {
			dv = types.NewNull(types.Double)
		}
		w := rng.Intn(producers)
		chunks[w].AppendRow(kv, dv, types.NewBigInt(int64(r)))
		if chunks[w].Len() == vector.ChunkCapacity || rng.Intn(512) == 0 {
			add(w)
		}
	}
	for w := range chunks {
		if chunks[w].Len() > 0 {
			add(w)
		}
	}
	return out
}

// FuzzPartitionMerge: for fuzzed producers, budgets, rows, widths 2–8
// and cut keys — the full keys, or a prefix of one or two — every range
// PartitionMerge returns is non-empty, and the ranges concatenated are
// the serial merge: chunk for chunk under the full keys, row for row
// under a prefix, where no prefix group spans two ranges. A declined
// split leaves the parent's own merge intact.
func FuzzPartitionMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, producers uint8, rows uint16, width, cut uint8) {
		k := 1 + int(producers)%8
		n := int(rows) % 12_000
		w := 2 + int(width)%7
		serial, err := MergeFinish(fuzzSorters(t, seed, k, n))
		if err != nil {
			t.Fatal(err)
		}
		want, wantLens := drainChunks(t, serial)
		serial.Close()
		it, err := MergeFinish(fuzzSorters(t, seed, k, n))
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		nkeys := len(it.keys)
		if c := int(cut) % 3; c > 0 {
			nkeys = c
		}
		parts, err := it.PartitionMerge(w, it.keys[:nkeys])
		if err != nil {
			t.Fatal(err)
		}
		if parts == nil {
			if got, lens := drainChunks(t, it); fmt.Sprint(got, lens) != fmt.Sprint(want, wantLens) {
				t.Fatal("a declined PartitionMerge changed the parent's merge")
			}
			return
		}
		if len(parts) < 2 || len(parts) > w {
			t.Fatalf("width %d: %d ranges", w, len(parts))
		}
		var got []string
		var lens []int
		groups := map[string]int{} // prefix group -> its range
		for pi, p := range parts {
			rows, plens := drainChunks(t, p)
			p.Close()
			if len(rows) == 0 {
				t.Fatalf("range %d of %d is empty", pi, len(parts))
			}
			got, lens = append(got, rows...), append(lens, plens...)
			if nkeys == len(it.keys) {
				continue
			}
			for _, row := range rows {
				// Rows print as "[k d id]": the group is the first nkeys fields.
				g := strings.Join(strings.Fields(strings.Trim(row, "[]"))[:nkeys], " ")
				if prev, ok := groups[g]; ok && prev != pi {
					t.Fatalf("prefix group %s spans ranges %d and %d", g, prev, pi)
				}
				groups[g] = pi
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ranges' rows differ from the serial merge (%d vs %d rows)", len(got), len(want))
		}
		if nkeys == len(it.keys) && fmt.Sprint(lens) != fmt.Sprint(wantLens) {
			t.Fatalf("chunk lengths %v, serial %v", lens, wantLens)
		}
	})
}

// TestPartitionMergeEarlyClose: abandoning range iterators mid-stream
// and closing the parent must return every pool reservation and leave
// no open run file.
func TestPartitionMergeEarlyClose(t *testing.T) {
	pool := buffer.NewPool(0, nil)
	producers := fanInSorters(t, 6, 20_000, 16<<10)
	for _, s := range producers {
		s.SetPool(pool)
	}
	it, err := MergeFinish(producers)
	if err != nil {
		t.Fatal(err)
	}
	files := append([]*os.File(nil), it.files...)
	if len(files) == 0 {
		t.Fatal("expected spilled runs")
	}
	parts, err := it.PartitionMerge(4, it.keys)
	if err != nil {
		t.Fatal(err)
	}
	if parts == nil {
		t.Fatal("PartitionMerge declined")
	}
	if _, err := parts[1].Next(); err != nil { // partially consume one range
		t.Fatal(err)
	}
	for _, p := range parts {
		p.Close()
	}
	it.Close()
	if used := pool.Used(); used != 0 {
		t.Fatalf("early close leaked %d bytes", used)
	}
	for _, f := range files {
		if err := f.Close(); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("run file still open after Close (close returned %v)", err)
		}
	}
}

// TestMergeNextErrorClosesFiles: a fault injected into a spilled run
// must surface as a Next error that eagerly closes every run file —
// previously sibling fds stayed open until the caller's Close.
func TestMergeNextErrorClosesFiles(t *testing.T) {
	s := NewSorter([]types.Type{types.BigInt}, []Key{{Col: 0}}, 64<<10, t.TempDir())
	for i := 0; i < 40; i++ {
		c := vector.NewChunk([]types.Type{types.BigInt})
		for j := 0; j < vector.ChunkCapacity; j++ {
			c.AppendRow(types.NewBigInt(int64(i*vector.ChunkCapacity + j)))
		}
		if err := s.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.runs) < 2 {
		t.Fatalf("expected several runs, got %d", len(s.runs))
	}
	// Inject a deterministic fault into a later chunk of a random run:
	// flipped-to-garbage length header, the on-disk equivalent of the
	// disk-subsystem corruption the faults package models.
	inj := faults.NewInjector(42)
	run := s.runs[len(s.runs)/2]
	if len(run.offs) < 2 {
		t.Fatalf("run too small to corrupt")
	}
	hdr := []byte{0, 0, 0, 0}
	inj.FlipBitsBytes(hdr, 28) // dense random flips: absurd chunk length
	hdr[3] |= 0x80             // force the length far past the file size
	if _, err := run.f.WriteAt(hdr, run.offs[1]); err != nil {
		t.Fatal(err)
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	files := append([]*os.File(nil), it.files...)
	var nerr error
	for {
		var c *vector.Chunk
		c, nerr = it.Next()
		if nerr != nil || c == nil {
			break
		}
	}
	if nerr == nil {
		t.Fatal("corrupted run did not error")
	}
	for _, f := range files {
		if cerr := f.Close(); !errors.Is(cerr, os.ErrClosed) {
			t.Fatalf("run file left open after Next error (close returned %v)", cerr)
		}
	}
	// The error is sticky: after the eager close, further Next calls
	// must keep failing rather than report a clean end of stream.
	if _, again := it.Next(); again == nil {
		t.Fatal("Next after a stream error reported clean end of stream")
	}
	it.Close() // idempotent after the eager error close
}

// TestCorruptRunHeaderIsBounded: a chunk's 4-byte length prefix is
// checked against the slot the spill recorded for it before anything is
// allocated — every single-bit flip reads as a "corrupt run" error, at
// Finish for a run's first chunk and at Next for a later one, and the
// high bits (2 GiB, 1 GiB, ...) are never believed.
func TestCorruptRunHeaderIsBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for bit := 0; bit < 32; bit++ {
		for chunk := 0; chunk < 2; chunk++ {
			s := NewSorter([]types.Type{types.BigInt}, []Key{{Col: 0}}, 64<<10, t.TempDir())
			for i := 0; i < 6; i++ {
				c := vector.NewChunk([]types.Type{types.BigInt})
				for j := 0; j < vector.ChunkCapacity; j++ {
					c.AppendRow(types.NewBigInt(int64(i*vector.ChunkCapacity + j)))
				}
				if err := s.Add(c); err != nil {
					t.Fatal(err)
				}
			}
			if len(s.runs) == 0 || len(s.runs[0].offs) < 2 {
				t.Fatalf("fixture spilled no two-chunk run")
			}
			run := s.runs[0]
			var hdr [4]byte
			if _, err := run.f.ReadAt(hdr[:], run.offs[chunk]); err != nil {
				t.Fatal(err)
			}
			hdr[bit/8] ^= 1 << (bit % 8)
			if _, err := run.f.WriteAt(hdr[:], run.offs[chunk]); err != nil {
				t.Fatal(err)
			}
			it, err := s.Finish()
			for err == nil {
				var c *vector.Chunk
				if c, err = it.Next(); c == nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), "corrupt run") {
				t.Fatalf("bit %d of chunk %d's length flipped: err = %v, want a corrupt-run error", bit, chunk, err)
			}
			if it != nil {
				it.Close()
			}
			s.Close()
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<20 {
		t.Fatalf("64 corrupt headers allocated %d MB: a flipped length was believed", grew>>20)
	}
}

// TestPartitionMergeSamplingDoesNoIO: the boundary footer captured at
// spill time must answer PartitionMerge's quantile sampling and seek
// probes from memory. Reading run chunks is allowed only for cursor
// positioning (one load per surviving clone, plus the bounded skip past
// the range boundary).
func TestPartitionMergeSamplingDoesNoIO(t *testing.T) {
	it, err := MergeFinish(fanInSorters(t, 8, 30_000, 4<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var nruns int
	for _, c := range it.cursors {
		if rc, ok := c.(*runCursor); ok {
			nruns++
			if rc.run.samples == nil || rc.run.samples.Len() != len(rc.run.offs) {
				t.Fatalf("run cursor missing boundary footer: %d samples for %d chunks",
					rc.run.samples.Len(), len(rc.run.offs))
			}
		}
	}
	if nruns == 0 {
		t.Fatal("fixture spilled no runs")
	}

	// Quantile sampling alone: strictly zero chunk reads.
	sample := newKeyedRows(it.layout, it.colTypes)
	before := runChunkReads.Load()
	for _, c := range it.cursors {
		if err := c.(partCursor).sampleInto(sample, maxSamplesPerCursor); err != nil {
			t.Fatal(err)
		}
	}
	if got := runChunkReads.Load() - before; got != 0 {
		t.Fatalf("sampling read %d run chunks; boundary footer not used", got)
	}

	// Full PartitionMerge: seek probes answer from the footer too, so
	// reads stay within positioning loads — well under one binary
	// search's worth of probes, let alone the 32-sample decode per run
	// the footer replaces.
	const width = 8
	before = runChunkReads.Load()
	parts, err := it.PartitionMerge(width, it.keys)
	if err != nil {
		t.Fatal(err)
	}
	if parts == nil {
		t.Fatal("PartitionMerge declined")
	}
	reads := runChunkReads.Load() - before
	if limit := int64(nruns * width * 2); reads > limit {
		t.Fatalf("PartitionMerge read %d run chunks, positioning bound is %d", reads, limit)
	}

	rows := 0
	for _, p := range parts {
		rows += len(drainRows(t, p))
		p.Close()
	}
	if rows != 30_000 {
		t.Fatalf("partitioned merge lost rows: %d", rows)
	}
}
