package csvio

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadTyped(t *testing.T) {
	path := writeFile(t, "id,name,score\n1,ann,2.5\n2,bob,\n3,,9.75\n")
	r, err := NewReader(path, []types.Type{types.BigInt, types.Varchar, types.Double}, Options{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	chunk, err := r.NextChunk()
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Len() != 3 {
		t.Fatalf("%d rows", chunk.Len())
	}
	if chunk.Cols[0].I64[0] != 1 || chunk.Cols[1].Str[0] != "ann" || chunk.Cols[2].F64[0] != 2.5 {
		t.Fatalf("row 0: %v", chunk.Row(0))
	}
	// Empty numeric field → NULL; empty varchar → empty string.
	if !chunk.Cols[2].IsNull(1) {
		t.Fatal("empty double should be NULL")
	}
	if chunk.Cols[1].IsNull(2) || chunk.Cols[1].Str[2] != "" {
		t.Fatal("empty varchar should stay empty string")
	}
	if next, _ := r.NextChunk(); next != nil {
		t.Fatal("expected EOF")
	}
}

func TestReadBadValue(t *testing.T) {
	path := writeFile(t, "1\nduck\n")
	r, err := NewReader(path, []types.Type{types.BigInt}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.NextChunk(); err == nil {
		t.Fatal("unparseable value accepted")
	}
}

func TestReadWrongArity(t *testing.T) {
	path := writeFile(t, "1,2\n3\n")
	r, err := NewReader(path, []types.Type{types.BigInt, types.BigInt}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.NextChunk(); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestCustomDelimiterAndNullLiteral(t *testing.T) {
	path := writeFile(t, "1;NA\n2;x\n")
	r, err := NewReader(path, []types.Type{types.BigInt, types.Varchar}, Options{Delimiter: ';', NullLiteral: "NA"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	chunk, err := r.NextChunk()
	if err != nil {
		t.Fatal(err)
	}
	if !chunk.Cols[1].IsNull(0) || chunk.Cols[1].Str[1] != "x" {
		t.Fatalf("null literal handling: %v %v", chunk.Row(0), chunk.Row(1))
	}
}

func TestWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	w, err := NewWriter(path, []string{"a", "b"}, Options{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	chunk := vector.NewChunk([]types.Type{types.BigInt, types.Varchar})
	chunk.AppendRow(types.NewBigInt(1), types.NewVarchar("x,with comma"))
	chunk.AppendRow(types.NewNull(types.BigInt), types.NewVarchar("y"))
	if err := w.WriteChunk(chunk); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(path, []types.Type{types.BigInt, types.Varchar}, Options{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.NextChunk()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Cols[1].Str[0] != "x,with comma" || !got.Cols[0].IsNull(1) {
		t.Fatalf("round trip: %v %v", got.Row(0), got.Row(1))
	}
}

func TestStreamingChunks(t *testing.T) {
	var sb []byte
	for i := 0; i < 3000; i++ {
		sb = append(sb, []byte("7\n")...)
	}
	path := writeFile(t, string(sb))
	r, err := NewReader(path, []types.Type{types.BigInt}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	total := 0
	chunks := 0
	for {
		c, err := r.NextChunk()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		total += c.Len()
		chunks++
	}
	if total != 3000 || chunks < 3 {
		t.Fatalf("total=%d chunks=%d", total, chunks)
	}
}
