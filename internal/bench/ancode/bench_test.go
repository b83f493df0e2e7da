package ancode

import (
	"math/rand"
	"testing"
)

func benchData(n int) ([]int64, []int64) {
	rng := rand.New(rand.NewSource(1))
	plain := make([]int64, n)
	for i := range plain {
		plain[i] = rng.Int63n(1 << 20)
	}
	c := MustNew(DefaultA)
	enc := make([]int64, n)
	c.EncodeSlice(enc, plain)
	return plain, enc
}

var sinkI64 int64

func BenchmarkPlainSum(b *testing.B) {
	plain, _ := benchData(1 << 20)
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s int64
		for _, v := range plain {
			s += v
		}
		sinkI64 = s
	}
}

func BenchmarkHardenedSum(b *testing.B) {
	_, enc := benchData(1 << 20)
	c := MustNew(DefaultA)
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, corrupt := c.SumDecoded(enc)
		if corrupt >= 0 {
			b.Fatal("false corruption")
		}
		sinkI64 = s
	}
}

func BenchmarkCheckOnly(b *testing.B) {
	_, enc := benchData(1 << 20)
	c := MustNew(DefaultA)
	b.SetBytes(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.CheckSlice(enc) >= 0 {
			b.Fatal("false corruption")
		}
	}
}
