package wal

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

func openTemp(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

func TestAppendAndReplay(t *testing.T) {
	l, path := openTemp(t)
	recs1 := []Record{
		{Type: RecCreateTable, Payload: []byte("t1")},
		{Type: RecInsert, Payload: []byte("data1")},
	}
	if err := l.AppendCommit(recs1, 2); err != nil {
		t.Fatal(err)
	}
	recs2 := []Record{{Type: RecDelete, Payload: []byte("rows")}}
	if err := l.AppendCommit(recs2, 3); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	txns, err := l2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 2 {
		t.Fatalf("replayed %d txns, want 2", len(txns))
	}
	if txns[0].CommitTS != 2 || txns[1].CommitTS != 3 {
		t.Fatalf("commit timestamps: %d, %d", txns[0].CommitTS, txns[1].CommitTS)
	}
	if len(txns[0].Records) != 2 || string(txns[0].Records[1].Payload) != "data1" {
		t.Fatalf("first txn: %+v", txns[0])
	}
}

func TestTornTailDiscarded(t *testing.T) {
	l, path := openTemp(t)
	l.AppendCommit([]Record{{Type: RecInsert, Payload: []byte("committed")}}, 2)
	size := l.Size()
	l.AppendCommit([]Record{{Type: RecInsert, Payload: []byte("torn-victim")}}, 3)
	l.Close()

	// Truncate mid-second-transaction: simulates a crash during the
	// commit write.
	if err := os.Truncate(path, size+7); err != nil {
		t.Fatal(err)
	}
	l2, _ := Open(path)
	defer l2.Close()
	txns, err := l2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 1 {
		t.Fatalf("replayed %d txns, want 1 (torn tail dropped)", len(txns))
	}
}

func TestCorruptionMidLogReported(t *testing.T) {
	l, path := openTemp(t)
	l.AppendCommit([]Record{
		{Type: RecInsert, Payload: []byte("aaaa")},
		{Type: RecInsert, Payload: []byte("bbbb")},
	}, 2)
	l.Close()

	raw, _ := os.ReadFile(path)
	// Corrupt the second record's payload (inside the transaction).
	raw[12+5+12+2] ^= 0xFF
	os.WriteFile(path, raw, 0o644)

	l2, _ := Open(path)
	defer l2.Close()
	if _, err := l2.Replay(); err == nil {
		t.Fatal("mid-transaction corruption not reported")
	}
}

func TestTruncate(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	l.AppendCommit([]Record{{Type: RecInsert, Payload: []byte("x")}}, 2)
	if l.Size() == 0 {
		t.Fatal("size should be non-zero")
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatal("size should be zero after truncate")
	}
	txns, err := l.Replay()
	if err != nil || len(txns) != 0 {
		t.Fatalf("replay after truncate: %d txns, %v", len(txns), err)
	}
}

func TestNilLogIsNoop(t *testing.T) {
	var l *Log
	if err := l.AppendCommit([]Record{{Type: RecInsert}}, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	txns, err := l.Replay()
	if err != nil || txns != nil {
		t.Fatal("nil log should replay nothing")
	}
	if l.Size() != 0 || l.Path() != "" {
		t.Fatal("nil log accessors")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTransaction(t *testing.T) {
	l, _ := openTemp(t)
	defer l.Close()
	if err := l.AppendCommit(nil, 5); err != nil {
		t.Fatal(err)
	}
	txns, err := l.Replay()
	if err != nil || len(txns) != 1 || txns[0].CommitTS != 5 || len(txns[0].Records) != 0 {
		t.Fatalf("empty txn replay: %+v %v", txns, err)
	}
}

// TestAppendCommitGoldenBytes pins the on-disk framing: the bytes of a
// multi-record commit (one record with an empty payload) as the
// copy-per-record framing wrote them, read back by Replay.
func TestAppendCommitGoldenBytes(t *testing.T) {
	const golden = "03000000e23edc000c3bd0c001743105000000a2afc43eb3ce28420564617461" +
		"010000005e9e0f301e18d7230709000000c5b0dbe4c15a4406080700000000000000"
	l, path := openTemp(t)
	recs := []Record{
		{Type: RecCreateTable, Payload: []byte("t1")},
		{Type: RecInsert, Payload: []byte("data")},
		{Type: RecDelete},
	}
	if err := l.AppendCommit(recs, 7); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != golden {
		t.Fatalf("framing changed:\n got %x\nwant %s", got, golden)
	}
	if l.Size() != int64(len(golden)/2) {
		t.Fatalf("Size %d, wrote %d bytes", l.Size(), len(golden)/2)
	}
	txns, err := l.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 1 || txns[0].CommitTS != 7 || len(txns[0].Records) != 3 {
		t.Fatalf("replayed %+v", txns)
	}
	for i, r := range txns[0].Records {
		if r.Type != recs[i].Type || !bytes.Equal(r.Payload, recs[i].Payload) {
			t.Fatalf("record %d: %+v, want %+v", i, r, recs[i])
		}
	}
	_ = l.Close()
}
