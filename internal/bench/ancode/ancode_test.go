package ancode

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeIdentity(t *testing.T) {
	c := MustNew(DefaultA)
	for _, v := range []int64{0, 1, -1, 42, -999, 1 << 40, -(1 << 40), c.MaxValue(), -c.MaxValue()} {
		enc := c.Encode(v)
		if got := c.Decode(enc); got != v {
			t.Errorf("decode(encode(%d)) = %d", v, got)
		}
		if !c.Check(enc) {
			t.Errorf("valid codeword %d rejected", v)
		}
	}
}

func TestInverseProperty(t *testing.T) {
	c := MustNew(DefaultA)
	f := func(raw int64) bool {
		v := raw % c.MaxValue() // stay inside the encodable domain
		return c.Decode(c.Encode(v)) == v && c.Check(c.Encode(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeChecked(t *testing.T) {
	c := MustNew(DefaultA)
	if _, err := c.EncodeChecked(c.MaxValue() + 1); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if _, err := c.EncodeChecked(42); err != nil {
		t.Errorf("in-domain value rejected: %v", err)
	}
}

func TestSingleBitFlipsAlwaysDetected(t *testing.T) {
	// With A = 641, any single bit flip in a 64-bit word leaves a
	// non-multiple of A: 2^k mod 641 != 0 for all k.
	c := MustNew(DefaultA)
	values := []int64{0, 1, -1, 123456789, -987654321, 1 << 50}
	for _, v := range values {
		enc := c.Encode(v)
		for bit := 0; bit < 64; bit++ {
			corrupted := enc ^ (1 << uint(bit))
			if c.Check(corrupted) {
				t.Fatalf("flip of bit %d in encode(%d) undetected", bit, v)
			}
		}
	}
}

func TestDoubleBitFlipDetectionRate(t *testing.T) {
	c := MustNew(DefaultA)
	rng := rand.New(rand.NewSource(11))
	const trials = 20000
	missed := 0
	for i := 0; i < trials; i++ {
		v := rng.Int63n(1 << 40)
		enc := c.Encode(v)
		b1 := uint(rng.Intn(64))
		b2 := uint(rng.Intn(64))
		corrupted := enc ^ (1 << b1) ^ (1 << b2)
		if corrupted != enc && c.Check(corrupted) {
			missed++
		}
	}
	// The expected undetected fraction is ~1/A ≈ 0.156%; allow 1%.
	if float64(missed)/trials > 0.01 {
		t.Fatalf("%d/%d double flips undetected", missed, trials)
	}
}

func TestCheckSliceFindsCorruption(t *testing.T) {
	c := MustNew(DefaultA)
	data := make([]int64, 1000)
	for i := range data {
		data[i] = int64(i * 3)
	}
	enc := make([]int64, len(data))
	c.EncodeSlice(enc, data)
	if idx := c.CheckSlice(enc); idx != -1 {
		t.Fatalf("clean slice reported corrupt at %d", idx)
	}
	enc[637] ^= 1 << 13
	if idx := c.CheckSlice(enc); idx != 637 {
		t.Fatalf("corruption at 637 reported at %d", idx)
	}
}

func TestSumDecoded(t *testing.T) {
	c := MustNew(DefaultA)
	data := []int64{1, 2, 3, 4, 5}
	enc := make([]int64, len(data))
	c.EncodeSlice(enc, data)
	sum, corrupt := c.SumDecoded(enc)
	if corrupt != -1 || sum != 15 {
		t.Fatalf("sum=%d corrupt=%d", sum, corrupt)
	}
	enc[2] ^= 1 << 7
	if _, corrupt := c.SumDecoded(enc); corrupt != 2 {
		t.Fatalf("corruption not found: %d", corrupt)
	}
}

func TestDecodeSliceRoundTrip(t *testing.T) {
	c := MustNew(DefaultA)
	data := []int64{-5, 0, 7, 1 << 33}
	enc := make([]int64, len(data))
	dec := make([]int64, len(data))
	c.EncodeSlice(enc, data)
	c.DecodeSlice(dec, enc)
	for i := range data {
		if dec[i] != data[i] {
			t.Fatalf("row %d: %d != %d", i, dec[i], data[i])
		}
	}
}

func TestNewValidation(t *testing.T) {
	for _, a := range []int64{0, 1, 2, 640, -3} {
		if _, err := New(a); err == nil {
			t.Errorf("A=%d accepted", a)
		}
	}
	if _, err := New(641); err != nil {
		t.Errorf("A=641 rejected: %v", err)
	}
}

func TestCorruptionError(t *testing.T) {
	err := &CorruptionError{Index: 3, Word: 0x1234}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
}
