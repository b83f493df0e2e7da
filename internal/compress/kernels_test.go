package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// kernelShapes covers the encoder's decision space: constant (FOR
// width 0 or a single RLE run), short runs (RLE wins), dense ramps
// (FOR with interesting widths), wide random (raw or width-64 FOR) and
// extreme magnitudes (delta overflow edges).
func kernelShapes(rng *rand.Rand) map[string][]int64 {
	ramp := make([]int64, 300)
	for i := range ramp {
		ramp[i] = -150 + int64(i)
	}
	runs := make([]int64, 0, 256)
	for v := int64(0); v < 16; v++ {
		for j := 0; j < 16; j++ {
			runs = append(runs, v*7-40)
		}
	}
	wide := make([]int64, 257)
	for i := range wide {
		wide[i] = rng.Int63() - rng.Int63()
	}
	width7 := make([]int64, 200)
	for i := range width7 {
		width7[i] = 1000 + rng.Int63n(128) // span 127 -> width 7
	}
	return map[string][]int64{
		"empty":    {},
		"constant": {42, 42, 42, 42, 42},
		"ramp":     ramp,
		"runs":     runs,
		"wide":     wide,
		"width7":   width7,
		"extremes": {math.MinInt64, -1, 0, 1, math.MaxInt64, math.MinInt64, math.MaxInt64},
	}
}

func encodings(src []int64) map[string][]byte {
	return map[string][]byte{
		"raw":   CompressInt64(src, None),
		"light": CompressInt64(src, Light),
		"rle":   rleEncode(src),
		"for":   forEncode(src),
	}
}

func TestSelectInt64MatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	for shape, src := range kernelShapes(rng) {
		consts := []int64{0, 1, -1, 42, 1000, 1063, math.MinInt64, math.MaxInt64}
		if len(src) > 0 {
			consts = append(consts, src[0], src[len(src)/2], src[len(src)-1]+1)
		}
		for encName, payload := range encodings(src) {
			for _, op := range ops {
				for _, c := range consts {
					match := make([]bool, len(src))
					for i := range match {
						match[i] = true
					}
					if !SelectInt64(payload, op, c, match) {
						t.Fatalf("%s/%s op=%d c=%d: kernel declined a light scheme", shape, encName, op, c)
					}
					for i, v := range src {
						if want := holdsI64(op, v, c); match[i] != want {
							t.Fatalf("%s/%s op=%d c=%d row %d (v=%d): got %v want %v",
								shape, encName, op, c, i, v, match[i], want)
						}
					}
				}
			}
		}
	}
}

func TestSelectInt64Intersects(t *testing.T) {
	src := []int64{1, 2, 3, 4, 5, 6}
	payload := forEncode(src)
	match := []bool{true, false, true, false, true, true}
	if !SelectInt64(payload, CmpGe, 3, match) {
		t.Fatal("kernel declined")
	}
	want := []bool{false, false, true, false, true, true}
	for i := range want {
		if match[i] != want[i] {
			t.Fatalf("row %d: got %v want %v", i, match[i], want[i])
		}
	}
}

func TestSelectInt64DeclinesFlate(t *testing.T) {
	src := make([]int64, 100)
	payload := CompressInt64(src, Heavy)
	if payload[0] != schemeFlate && payload[0] != schemeFlateLight {
		t.Skip("heavy picked a light scheme for this input")
	}
	match := make([]bool, len(src))
	if SelectInt64(payload, CmpEq, 0, match) {
		t.Fatal("kernel accepted a DEFLATE payload")
	}
	if GatherInt64(payload, []int{0}, make([]int64, 1)) {
		t.Fatal("gather accepted a DEFLATE payload")
	}
}

func TestSelectInt64InMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(12)
		codes := make([]int64, 200)
		for i := range codes {
			codes[i] = int64(rng.Intn(k))
		}
		member := make([]bool, k)
		for i := range member {
			member[i] = rng.Intn(2) == 0
		}
		for encName, payload := range encodings(codes) {
			match := make([]bool, len(codes))
			for i := range match {
				match[i] = true
			}
			if !SelectInt64In(payload, member, match) {
				t.Fatalf("trial %d %s: kernel declined", trial, encName)
			}
			for i, v := range codes {
				if match[i] != member[v] {
					t.Fatalf("trial %d %s row %d: got %v want %v", trial, encName, i, match[i], member[v])
				}
			}
		}
	}
}

func TestSelectInt64InRejectsOutOfRange(t *testing.T) {
	payload := CompressInt64([]int64{0, 1, 2, 3}, Light)
	match := make([]bool, 4)
	if SelectInt64In(payload, []bool{true, true}, match) {
		t.Fatal("kernel accepted codes beyond the member table")
	}
}

func TestGatherInt64MatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for shape, src := range kernelShapes(rng) {
		if len(src) == 0 {
			continue
		}
		sels := [][]int{
			{},
			{0},
			{len(src) - 1},
			{0, len(src) - 1},
		}
		var every, sparse []int
		for i := range src {
			every = append(every, i)
			if i%7 == 3 {
				sparse = append(sparse, i)
			}
		}
		sels = append(sels, every, sparse)
		for encName, payload := range encodings(src) {
			for si, sel := range sels {
				out := make([]int64, len(sel))
				if !GatherInt64(payload, sel, out) {
					t.Fatalf("%s/%s sel %d: gather declined", shape, encName, si)
				}
				for k, r := range sel {
					if out[k] != src[r] {
						t.Fatalf("%s/%s sel %d row %d: got %d want %d", shape, encName, si, r, out[k], src[r])
					}
				}
			}
		}
	}
}

func TestGatherInt64Bounds(t *testing.T) {
	payload := CompressInt64([]int64{1, 2, 3}, Light)
	if GatherInt64(payload, []int{3}, make([]int64, 1)) {
		t.Fatal("gather accepted an out-of-range row index")
	}
	if GatherInt64(payload, []int{0, 1}, make([]int64, 1)) {
		t.Fatal("gather accepted an undersized output buffer")
	}
	// A FOR frame whose rows*width overflows 64 bits must not pass the
	// packed-length check: 2^58 rows of 64 bits in 8 packed bytes.
	forHuge := append(binary.AppendVarint(binary.AppendUvarint([]byte{schemeFOR}, 1<<58), 0), 64)
	forHuge = append(forHuge, make([]byte, 8)...)
	if GatherInt64(forHuge, []int{1}, make([]int64, 1)) {
		t.Fatal("gather accepted a FOR frame whose declared rows overflow its packed bytes")
	}
}
