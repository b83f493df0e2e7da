package bench

import (
	"math/rand"
	"testing"

	"repro/internal/compress"
)

func TestCompressedIntermediateLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]int64, 100_000)
	for i := range data {
		data[i] = rng.Int63n(50)
	}
	ci := NewCompressedIntermediate(append([]int64(nil), data...))
	raw := ci.FootprintBytes()
	if raw != int64(len(data))*8 {
		t.Fatalf("raw footprint %d", raw)
	}
	if _, err := ci.SetLevel(compress.Light); err != nil {
		t.Fatal(err)
	}
	light := ci.FootprintBytes()
	if light >= raw {
		t.Fatalf("light compression grew footprint: %d >= %d", light, raw)
	}
	if _, err := ci.SetLevel(compress.Heavy); err != nil {
		t.Fatal(err)
	}
	heavy := ci.FootprintBytes()
	if heavy >= raw {
		t.Fatalf("heavy compression grew footprint: %d", heavy)
	}
	// Back to raw: contents must be intact.
	if _, err := ci.SetLevel(compress.None); err != nil {
		t.Fatal(err)
	}
	got, err := ci.Values()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("value %d corrupted through compression cycle", i)
		}
	}
}

func TestCompressedIntermediateSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]int64, 20_000)
	for i := range data {
		data[i] = rng.Int63n(64) - 32
	}
	ci := NewCompressedIntermediate(append([]int64(nil), data...))
	ops := []compress.CmpOp{compress.CmpEq, compress.CmpNe, compress.CmpLt, compress.CmpLe, compress.CmpGt, compress.CmpGe}
	for _, level := range []compress.Level{compress.None, compress.Light, compress.Heavy} {
		if _, err := ci.SetLevel(level); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			for _, c := range []int64{-40, -1, 0, 17, 63} {
				got, err := ci.Select(op, c)
				if err != nil {
					t.Fatalf("level %v: %v", level, err)
				}
				want := selectInt64Slice(data, op, c)
				if len(got) != len(want) {
					t.Fatalf("level %v op %d c %d: %d matches, want %d", level, op, c, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("level %v op %d c %d: index %d = %d, want %d", level, op, c, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSetLevelIdempotent(t *testing.T) {
	ci := NewCompressedIntermediate([]int64{1, 2, 3})
	d, err := ci.SetLevel(compress.None)
	if err != nil || d != 0 {
		t.Fatalf("no-op SetLevel: %v %v", d, err)
	}
}

func TestSimulateFigure1Shape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]int64, 200_000)
	for i := range data {
		data[i] = rng.Int63n(100)
	}
	const total = 1 << 30
	points, err := SimulateFigure1(Figure1Config{
		TotalRAM:   total,
		Values:     data,
		AppProfile: RampProfile(total/10, total*9/10, 3, 5, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shape: starts at None, reaches Heavy at the peak, returns to None.
	if points[0].Level != compress.None {
		t.Fatalf("starts at %v", points[0].Level)
	}
	sawHeavy := false
	var heavyRAM, noneRAM int64
	for _, p := range points {
		if p.Level == compress.Heavy {
			sawHeavy = true
			heavyRAM = p.DBMSRAM
		}
		if p.Level == compress.None {
			noneRAM = p.DBMSRAM
		}
	}
	if !sawHeavy {
		t.Fatal("never reached heavy compression at peak app RAM")
	}
	if last := points[len(points)-1]; last.Level != compress.None {
		t.Fatalf("ends at %v", last.Level)
	}
	if heavyRAM >= noneRAM {
		t.Fatalf("heavy footprint %d not below raw %d", heavyRAM, noneRAM)
	}
}

func TestRampProfileShape(t *testing.T) {
	p := RampProfile(10, 100, 2, 3, 2)
	if len(p) != 2+3+2+3+2 {
		t.Fatalf("profile length %d", len(p))
	}
	if p[0] != 10 || p[len(p)-1] != 10 {
		t.Fatal("profile should start and end idle")
	}
	max := int64(0)
	for _, v := range p {
		if v > max {
			max = v
		}
	}
	if max != 100 {
		t.Fatalf("peak %d", max)
	}
}
