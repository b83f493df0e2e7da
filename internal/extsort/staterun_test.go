package extsort

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// TestStateRunRoundtrip: records written across several runs of one
// spill file must read back exactly, in order, per run.
func TestStateRunRoundtrip(t *testing.T) {
	sf, err := NewStateSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	var runs []*StateRun
	for r := 0; r < 3; r++ {
		w, err := sf.NewRun()
		if err != nil {
			t.Fatal(err)
		}
		// Big payloads force multiple blocks per run.
		payload := make([]byte, 1000)
		for i := range payload {
			payload[i] = byte(r)
		}
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("run%d-key%06d", r, i)
			if err := w.Append([]byte(key), payload); err != nil {
				t.Fatal(err)
			}
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if run.Len() != 500 {
			t.Fatalf("run %d: Len = %d", r, run.Len())
		}
		runs = append(runs, run)
	}
	for r, run := range runs {
		cur := run.Cursor()
		i := 0
		for {
			ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			wantKey := fmt.Sprintf("run%d-key%06d", r, i)
			if string(cur.Key()) != wantKey {
				t.Fatalf("run %d record %d: key %q, want %q", r, i, cur.Key(), wantKey)
			}
			if len(cur.State()) != 1000 || cur.State()[0] != byte(r) {
				t.Fatalf("run %d record %d: bad payload", r, i)
			}
			i++
		}
		if i != 500 {
			t.Fatalf("run %d: read %d records, want 500", r, i)
		}
	}
}

// TestStateRunKeepsAppendOrder: a run is read back in the order it was
// written, whatever the keys — descending, repeated, empty — because its
// reader re-loads records by hash and needs no key order. One writer at
// a time still holds.
func TestStateRunKeepsAppendOrder(t *testing.T) {
	sf, err := NewStateSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	w, err := sf.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"b", "b", "a", "", "c", "a"}
	for i, k := range keys {
		if err := w.Append([]byte(k), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cur := run.Cursor()
	for i, k := range keys {
		if ok, err := cur.Next(); !ok || err != nil {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if string(cur.Key()) != k || len(cur.State()) != 1 || cur.State()[0] != byte(i) {
			t.Fatalf("record %d = (%q, %v), want (%q, [%d])", i, cur.Key(), cur.State(), k, i)
		}
	}
	if ok, err := cur.Next(); ok || err != nil {
		t.Fatalf("past the last record: ok=%v err=%v", ok, err)
	}
	w, err = sf.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	w.Abort()
	// A second writer may start after Abort; before it, NewRun refuses.
	w2, err := sf.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.NewRun(); err == nil {
		t.Fatal("two concurrent run writers accepted")
	}
	w2.Abort()
}

// TestStateRunCorruptionErrors: flipped block headers and truncated
// records must surface as errors, never hangs or panics (the on-disk
// equivalent of the disk-subsystem faults the faults package models).
func TestStateRunCorruptionErrors(t *testing.T) {
	sf, err := NewStateSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	w, err := sf.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 2000)
	for i := 0; i < 200; i++ {
		if err := w.Append([]byte(fmt.Sprintf("key%06d", i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.offs) < 2 {
		t.Fatalf("want multiple blocks, got %d", len(run.offs))
	}
	// Absurd length in the second block's header.
	if _, err := sf.f.WriteAt([]byte{0xff, 0xff, 0xff, 0x7f}, run.offs[1]); err != nil {
		t.Fatal(err)
	}
	cur := run.Cursor()
	var nerr error
	for {
		ok, err := cur.Next()
		if err != nil {
			nerr = err
			break
		}
		if !ok {
			break
		}
	}
	if nerr == nil {
		t.Fatal("corrupted block header read cleanly")
	}
	// Garbage inside the first block: record framing must error too.
	run2 := &StateRun{sf: sf, offs: run.offs[:1], bytes: run.bytes, n: run.n}
	if _, err := sf.f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, run.offs[0]+4); err != nil {
		t.Fatal(err)
	}
	cur2 := run2.Cursor()
	var nerr2 error
	for {
		ok, err := cur2.Next()
		if err != nil {
			nerr2 = err
			break
		}
		if !ok {
			break
		}
	}
	if nerr2 == nil {
		t.Fatal("corrupted record framing read cleanly")
	}
	// Close is idempotent and reads after Close error instead of
	// resurrecting the fd.
	sf.Close()
	sf.Close()
	if _, err := run.Cursor().Next(); err == nil {
		t.Fatal("cursor read after spill-file Close")
	}
	if cerr := sf.File(); cerr != nil {
		t.Fatal("File() non-nil after Close")
	}
}

// TestStateSpillFileUnlinked: the backing file is unlinked at creation
// (no litter on crash) and closing it releases the fd.
func TestStateSpillFileUnlinked(t *testing.T) {
	dir := t.TempDir()
	sf, err := NewStateSpillFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill file left linked in tmpdir: %v", entries)
	}
	f := sf.File()
	sf.Close()
	if err := f.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("fd still open after Close (close returned %v)", err)
	}
}
