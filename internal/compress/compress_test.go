package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, data []int64, level Level) []byte {
	t.Helper()
	enc := CompressInt64(data, level)
	dec, err := DecompressInt64(enc)
	if err != nil {
		t.Fatalf("%v (%d values): %v", level, len(data), err)
	}
	if len(dec) != len(data) {
		t.Fatalf("%v: got %d values, want %d", level, len(dec), len(data))
	}
	for i := range data {
		if dec[i] != data[i] {
			t.Fatalf("%v: value %d: got %d want %d", level, i, dec[i], data[i])
		}
	}
	return enc
}

func TestRoundTripAllLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	datasets := map[string][]int64{
		"empty":     {},
		"constant":  repeat(42, 10000),
		"runs":      runs(rng, 10000),
		"smallDom":  domain(rng, 10000, 100),
		"random":    randomVals(rng, 10000),
		"extremes":  {math.MaxInt64, math.MinInt64, 0, -1, 1},
		"negatives": {-5, -5, -5, -1000000, 3},
	}
	for name, data := range datasets {
		for _, level := range []Level{None, Light, Heavy} {
			t.Run(name+"/"+level.String(), func(t *testing.T) {
				roundTrip(t, data, level)
			})
		}
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := domain(rng, 100000, 16) // 16 distinct values: highly compressible
	raw := len(CompressInt64(data, None))
	light := len(CompressInt64(data, Light))
	heavy := len(CompressInt64(data, Heavy))
	if light >= raw/2 {
		t.Errorf("light compression ineffective: %d vs raw %d", light, raw)
	}
	if heavy >= raw/2 {
		t.Errorf("heavy compression ineffective: %d vs raw %d", heavy, raw)
	}
	if heavy >= light {
		t.Logf("note: heavy (%d) not smaller than light (%d) on this data", heavy, light)
	}
}

func TestHeavyBeatsLightOnRandomSmallDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Skewed distribution: DEFLATE exploits frequency, FOR cannot.
	data := make([]int64, 50000)
	for i := range data {
		if rng.Intn(10) < 9 {
			data[i] = 7
		} else {
			data[i] = int64(rng.Intn(256))
		}
	}
	light := len(CompressInt64(data, Light))
	heavy := len(CompressInt64(data, Heavy))
	if heavy >= light {
		t.Errorf("heavy (%d) should beat light (%d) on skewed data", heavy, light)
	}
}

func TestDecompressErrors(t *testing.T) {
	if _, err := DecompressInt64(nil); err == nil {
		t.Error("empty buffer accepted")
	}
	if _, err := DecompressInt64([]byte{99, 0, 0}); err == nil {
		t.Error("unknown scheme accepted")
	}
	enc := CompressInt64([]int64{1, 2, 3}, Light)
	if _, err := DecompressInt64(enc[:len(enc)-1]); err == nil {
		t.Error("truncated buffer accepted")
	}
	if _, err := DecompressInt64(binary.AppendUvarint([]byte{schemeRaw}, 1<<40)); err == nil {
		t.Error("raw header claiming 2^40 rows in no bytes accepted")
	}
	run := binary.AppendVarint(binary.AppendUvarint(binary.AppendUvarint([]byte{schemeRLE}, 2), 3), 7)
	if _, err := DecompressInt64(run); err == nil {
		t.Error("RLE run past the declared row count accepted")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 10000)
	rng.Read(data)
	for _, level := range []Level{None, Light, Heavy} {
		enc := CompressBytes(data, level)
		dec, err := DecompressBytes(enc)
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if string(dec) != string(data) {
			t.Fatalf("%v: corrupted", level)
		}
	}
}

func TestStringDict(t *testing.T) {
	src := []string{"aa", "bb", "aa", "cc", "bb", "aa"}
	d := EncodeStrings(src)
	if len(d.Values) != 3 {
		t.Fatalf("dictionary has %d entries, want 3", len(d.Values))
	}
	got := d.Decode()
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("row %d: %q != %q", i, got[i], src[i])
		}
	}
}

func TestInt64RoundTripProperty(t *testing.T) {
	for _, level := range []Level{None, Light, Heavy} {
		level := level
		f := func(data []int64) bool {
			enc := CompressInt64(data, level)
			dec, err := DecompressInt64(enc)
			if err != nil || len(dec) != len(data) {
				return false
			}
			for i := range data {
				if dec[i] != data[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%v: %v", level, err)
		}
	}
}

func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func runs(rng *rand.Rand, n int) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		v := rng.Int63n(50)
		run := 1 + rng.Intn(40)
		for i := 0; i < run && len(out) < n; i++ {
			out = append(out, v)
		}
	}
	return out
}

func domain(rng *rand.Rand, n int, dom int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(dom)
	}
	return out
}

func randomVals(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63() - rng.Int63()
	}
	return out
}
