package vector

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestBitmaskBasics(t *testing.T) {
	var m Bitmask
	if !m.AllValid() {
		t.Fatal("fresh mask should be all-valid")
	}
	for i := 0; i < 200; i++ {
		if !m.IsValid(i) {
			t.Fatalf("row %d should be valid", i)
		}
	}
	m.SetInvalid(5)
	m.SetInvalid(64)
	m.SetInvalid(129)
	if m.AllValid() {
		t.Fatal("mask should be materialized")
	}
	for i := 0; i < 200; i++ {
		want := i != 5 && i != 64 && i != 129
		if m.IsValid(i) != want {
			t.Fatalf("row %d: valid=%v want %v", i, m.IsValid(i), want)
		}
	}
	m.SetValid(64)
	if !m.IsValid(64) {
		t.Fatal("SetValid failed")
	}
	if got := m.CountValid(200); got != 198 {
		t.Fatalf("CountValid = %d, want 198", got)
	}
	m.Reset()
	if !m.IsValid(5) {
		t.Fatal("Reset failed")
	}
}

func TestBitmaskProperty(t *testing.T) {
	// Randomized: mask behaves like a []bool.
	f := func(ops []uint16) bool {
		var m Bitmask
		ref := make(map[int]bool) // false = invalid
		for _, op := range ops {
			idx := int(op % 512)
			if op%2 == 0 {
				m.SetInvalid(idx)
				ref[idx] = false
			} else {
				m.SetValid(idx)
				ref[idx] = true
			}
		}
		for i := 0; i < 512; i++ {
			want, touched := ref[i], false
			if _, ok := ref[i]; ok {
				touched = true
			}
			if !touched {
				want = true
			}
			if m.IsValid(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorSetGetAllTypes(t *testing.T) {
	cases := []types.Value{
		types.NewBool(true),
		types.NewInt(-42),
		types.NewBigInt(1 << 40),
		types.NewDouble(3.5),
		types.NewVarchar("hello"),
		types.NewTimestamp(1700000000000000),
	}
	for _, val := range cases {
		v := NewLen(val.Type, 4)
		v.Set(2, val)
		got := v.Get(2)
		if !types.Equal(got, val) {
			t.Errorf("%s: got %v want %v", val.Type, got, val)
		}
		v.SetNull(2)
		if !v.Get(2).Null {
			t.Errorf("%s: SetNull failed", val.Type)
		}
	}
}

func TestVectorAppendAndRange(t *testing.T) {
	src := New(types.BigInt, 0)
	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			src.Append(types.NewNull(types.BigInt))
		} else {
			src.Append(types.NewBigInt(int64(i)))
		}
	}
	dst := New(types.BigInt, 0)
	dst.AppendRange(src, 10, 50)
	if dst.Len() != 50 {
		t.Fatalf("len=%d", dst.Len())
	}
	for i := 0; i < 50; i++ {
		want := src.Get(10 + i)
		if !types.Equal(dst.Get(i), want) {
			t.Fatalf("row %d: got %v want %v", i, dst.Get(i), want)
		}
	}
}

func TestCompactInto(t *testing.T) {
	v := New(types.Varchar, 0)
	for i := 0; i < 10; i++ {
		v.Append(types.NewVarchar(string(rune('a' + i))))
	}
	v.SetNull(3)
	var out Vector
	v.CompactInto(&out, []int{1, 3, 5})
	if out.Len() != 3 {
		t.Fatalf("len=%d", out.Len())
	}
	if out.Str[0] != "b" || out.Str[2] != "f" {
		t.Fatalf("wrong values: %v", out.Str)
	}
	if !out.IsNull(1) || out.IsNull(0) {
		t.Fatal("validity not compacted")
	}
}

// TestGatherInto: rows picked from several source chunks land, typed
// and with their NULLs, in the destination's columns from the offset on
// — sources may be wider than what the destination takes, the columns
// below the offset are left alone, and a reused destination forgets its
// old NULLs.
func TestGatherInto(t *testing.T) {
	typs := []types.Type{types.Boolean, types.Integer, types.BigInt, types.Double, types.Varchar, types.Timestamp}
	mk := func(base int) *Chunk {
		c := NewChunk(append(append([]types.Type(nil), typs...), types.BigInt)) // one column the gather ignores
		for r := 0; r < 5; r++ {
			v := base + r
			c.AppendRow(types.NewBool(v%2 == 0), types.NewInt(int32(v)), types.NewBigInt(int64(v)*10),
				types.NewDouble(float64(v)/2), types.NewVarchar(string(rune('a'+v))), types.NewTimestamp(int64(v)), types.NewBigInt(-1))
		}
		return c
	}
	a, b := mk(0), mk(10)
	b.Cols[2].SetNull(4)
	b.Cols[4].SetNull(4)
	dst := NewChunk(append([]types.Type{types.Varchar}, typs...))
	dst.SetLen(3)
	for _, col := range dst.Cols {
		col.SetNull(0) // stale NULLs of an earlier use
	}
	srcs, rows := []*Chunk{b, a, b}, []int32{4, 2, 0}
	GatherInto(dst, 1, srcs, rows)
	if dst.Len() != 3 || !dst.Cols[0].IsNull(0) {
		t.Fatalf("len=%d, column below the offset touched: %v", dst.Len(), !dst.Cols[0].IsNull(0))
	}
	for i, src := range srcs {
		for c := range typs {
			if got, want := dst.Cols[1+c].Get(i), src.Cols[c].Get(int(rows[i])); !types.Equal(got, want) || got.Null != want.Null {
				t.Errorf("row %d col %d: got %v, want %v", i, c, got, want)
			}
		}
	}
}

func TestChunkRoundTripCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	chunk := NewChunk([]types.Type{types.Boolean, types.Integer, types.BigInt, types.Double, types.Varchar, types.Timestamp})
	for i := 0; i < 777; i++ {
		vals := []types.Value{
			types.NewBool(rng.Intn(2) == 0),
			types.NewInt(int32(rng.Int63())),
			types.NewBigInt(rng.Int63()),
			types.NewDouble(rng.NormFloat64()),
			types.NewVarchar(randString(rng)),
			types.NewTimestamp(rng.Int63n(1 << 50)),
		}
		for c := range vals {
			if rng.Intn(7) == 0 {
				vals[c] = types.NewNull(vals[c].Type)
			}
		}
		chunk.AppendRow(vals...)
	}
	enc := EncodeChunk(nil, chunk)
	dec, rest, err := DecodeChunk(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if dec.Len() != chunk.Len() || dec.NumCols() != chunk.NumCols() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", dec.Len(), dec.NumCols(), chunk.Len(), chunk.NumCols())
	}
	for r := 0; r < chunk.Len(); r++ {
		for c := 0; c < chunk.NumCols(); c++ {
			a, b := chunk.Cols[c].Get(r), dec.Cols[c].Get(r)
			if !types.Equal(a, b) {
				t.Fatalf("row %d col %d: %v != %v", r, c, a, b)
			}
		}
	}
}

func TestCodecSpecialFloats(t *testing.T) {
	v := New(types.Double, 0)
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -0.0, math.MaxFloat64} {
		v.Append(types.NewDouble(f))
	}
	enc := EncodeVector(nil, v)
	dec, _, err := DecodeVector(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.Len(); i++ {
		a, b := v.F64[i], dec.F64[i]
		if math.IsNaN(a) != math.IsNaN(b) {
			t.Fatalf("NaN mismatch at %d", i)
		}
		if !math.IsNaN(a) && math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("bits differ at %d: %x vs %x", i, math.Float64bits(a), math.Float64bits(b))
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	v := NewLen(types.BigInt, 100)
	enc := EncodeVector(nil, v)
	for _, cut := range []int{0, 1, 5, len(enc) / 2, len(enc) - 1} {
		if _, _, err := DecodeVector(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestChunkAppendRowFrom(t *testing.T) {
	src := NewChunk([]types.Type{types.BigInt, types.Varchar})
	src.AppendRow(types.NewBigInt(1), types.NewVarchar("x"))
	src.AppendRow(types.NewNull(types.BigInt), types.NewVarchar("y"))
	dst := NewChunk(src.Types())
	dst.AppendRowFrom(src, 1)
	if dst.Len() != 1 || !dst.Cols[0].IsNull(0) || dst.Cols[1].Str[0] != "y" {
		t.Fatalf("AppendRowFrom wrong: %v", dst.Row(0))
	}
}

func TestVectorCodecProperty(t *testing.T) {
	f := func(vals []int64, nullEvery uint8) bool {
		v := New(types.BigInt, 0)
		for i, x := range vals {
			if nullEvery > 0 && i%(int(nullEvery)+1) == 0 {
				v.Append(types.NewNull(types.BigInt))
			} else {
				v.Append(types.NewBigInt(x))
			}
		}
		enc := EncodeVector(nil, v)
		dec, rest, err := DecodeVector(enc)
		if err != nil || len(rest) != 0 || dec.Len() != v.Len() {
			return false
		}
		for i := 0; i < v.Len(); i++ {
			if !types.Equal(v.Get(i), dec.Get(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randString(rng *rand.Rand) string {
	n := rng.Intn(20)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('!' + rng.Intn(90))
	}
	return string(b)
}

func TestTypesOfChunk(t *testing.T) {
	c := NewChunk([]types.Type{types.Integer, types.Double})
	if !reflect.DeepEqual(c.Types(), []types.Type{types.Integer, types.Double}) {
		t.Fatal("Types mismatch")
	}
}

// TestAppendRangeSetsValidBits appends over slots whose mask bits were
// cleared by earlier use: valid source rows must come out valid, both
// from an all-valid source and from one with NULLs.
func TestAppendRangeSetsValidBits(t *testing.T) {
	mixed := New(types.BigInt, 0)
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			mixed.Append(types.NewNull(types.BigInt))
		} else {
			mixed.Append(types.NewBigInt(int64(i)))
		}
	}
	allValid := New(types.BigInt, 0)
	for i := 0; i < 200; i++ {
		allValid.Append(types.NewBigInt(int64(i)))
	}
	// Unaligned offsets go bit by bit; aligned ones a word at a time.
	for _, off := range []struct{ dst, src int }{{5, 7}, {64, 0}, {0, 0}} {
		for _, src := range []*Vector{allValid, mixed} {
			dst := New(types.BigInt, 0)
			for i := 0; i < 300; i++ {
				dst.Append(types.NewNull(types.BigInt))
			}
			dst.SetLen(off.dst) // the slots after keep their cleared bits
			dst.AppendRange(src, off.src, 150)
			for i := 0; i < 150; i++ {
				if got, want := dst.IsNull(off.dst+i), src.IsNull(off.src+i); got != want {
					t.Fatalf("offsets %+v row %d: IsNull %v, source %v", off, off.dst+i, got, want)
				}
			}
			for i := 0; i < off.dst; i++ {
				if !dst.IsNull(i) {
					t.Fatalf("offsets %+v: row %d before the range lost its NULL", off, i)
				}
			}
		}
	}
}
