// Package ancode implements AN-code hardening for in-memory integer
// data, following Kolditz et al. (SIGMOD'18) as discussed in paper §3:
// every value v is stored as v*A for a fixed odd constant A, so a random
// bit flip in RAM turns the word into a non-multiple of A with
// probability (A-1)/A and is detected by a cheap modulo check during the
// scan. The paper reports 1.1x-1.6x overhead for this class of scheme;
// experiment E3 measures ours.
//
// The code space is the 64-bit integers; values must satisfy
// |v| ≤ MaxValue = MaxInt64/A so that v*A does not wrap (wrapping would
// make every word a "codeword", defeating detection). MaxValue for the
// default A is ≈ 1.4e16, ample for analytical columns.
package ancode

import (
	"fmt"
	"math"
)

// DefaultA is the default encoding constant. 641 is a prime "super-A"
// from the AN-coding literature: no power of two is a multiple of it, so
// every single bit flip within the valid domain is detected, and random
// multi-bit corruption escapes with probability only 1/A ≈ 0.16%.
const DefaultA int64 = 641

// Codec encodes and checks AN-coded int64 words.
type Codec struct {
	a   int64
	max int64 // largest encodable magnitude
}

// New returns a codec for constant a, which must be odd and > 1.
func New(a int64) (*Codec, error) {
	if a <= 1 || a%2 == 0 {
		return nil, fmt.Errorf("ancode: constant A must be odd and > 1, got %d", a)
	}
	return &Codec{a: a, max: math.MaxInt64 / a}, nil
}

// MustNew is New for known-good constants.
func MustNew(a int64) *Codec {
	c, err := New(a)
	if err != nil {
		panic(err)
	}
	return c
}

// MaxValue returns the largest magnitude the codec can encode without
// overflow.
func (c *Codec) MaxValue() int64 { return c.max }

// Encode returns v*A. Values outside ±MaxValue wrap and lose
// protection; use EncodeChecked when the domain is not known.
func (c *Codec) Encode(v int64) int64 { return v * c.a }

// EncodeChecked is Encode with a domain check.
func (c *Codec) EncodeChecked(v int64) (int64, error) {
	if v > c.max || v < -c.max {
		return 0, fmt.Errorf("ancode: value %d outside encodable domain ±%d", v, c.max)
	}
	return v * c.a, nil
}

// Decode returns the original value of a valid codeword.
func (c *Codec) Decode(enc int64) int64 { return enc / c.a }

// Check reports whether enc is a valid codeword (an exact multiple of A).
func (c *Codec) Check(enc int64) bool { return enc%c.a == 0 }

// EncodeSlice encodes src into dst (which may alias src).
func (c *Codec) EncodeSlice(dst, src []int64) {
	a := c.a
	for i, v := range src {
		dst[i] = v * a
	}
}

// DecodeSlice decodes src into dst without checking.
func (c *Codec) DecodeSlice(dst, src []int64) {
	a := c.a
	for i, v := range src {
		dst[i] = v / a
	}
}

// CheckSlice verifies all words and returns the index of the first
// corrupted word, or -1 if all are valid codewords.
//
// The hot kernels below are specialized for DefaultA: with the divisor
// known at compile time the compiler strength-reduces the divide into a
// multiply+shift, which is what keeps the hardening overhead in the
// small-constant-factor range the paper cites.
func (c *Codec) CheckSlice(enc []int64) int {
	if c.a == DefaultA {
		return checkSliceDefault(enc)
	}
	a := c.a
	for i, v := range enc {
		if v%a != 0 {
			return i
		}
	}
	return -1
}

// Lemire divisibility: for odd A, x (unsigned) is a multiple of A iff
// x * inverse(A) mod 2^64 ≤ (2^64-1)/A — and for valid multiples that
// same product IS the exact quotient. One multiply gives both the
// integrity check and the decode.
const (
	invDefaultA uint64 = 18417966001831689601 // inverse of 641 mod 2^64
	quotLimitA  uint64 = ^uint64(0) / uint64(DefaultA)
)

func checkSliceDefault(enc []int64) int {
	for i, v := range enc {
		w := uint64(v)
		if v < 0 {
			w = uint64(-v)
		}
		if w*invDefaultA > quotLimitA {
			return i
		}
	}
	return -1
}

// SumDecoded sums the decoded values of enc while verifying each word —
// the fused scan+check kernel used by resilient aggregation. It returns
// the sum and the index of the first corrupt word (-1 if clean).
func (c *Codec) SumDecoded(enc []int64) (sum int64, corrupt int) {
	if c.a == DefaultA {
		return sumDecodedDefault(enc)
	}
	a := c.a
	for i, v := range enc {
		q := v / a
		if v-q*a != 0 {
			return 0, i
		}
		sum += q
	}
	return sum, -1
}

func sumDecodedDefault(enc []int64) (sum int64, corrupt int) {
	// Branchless abs/sign-restore and 4-way unrolling with independent
	// accumulators keep the check+decode pipeline at a few cycles per
	// value instead of serializing on one chain.
	var s0, s1, s2, s3 int64
	i := 0
	for ; i+4 <= len(enc); i += 4 {
		v0, v1, v2, v3 := enc[i], enc[i+1], enc[i+2], enc[i+3]
		m0, m1, m2, m3 := v0>>63, v1>>63, v2>>63, v3>>63
		q0 := uint64((v0^m0)-m0) * invDefaultA
		q1 := uint64((v1^m1)-m1) * invDefaultA
		q2 := uint64((v2^m2)-m2) * invDefaultA
		q3 := uint64((v3^m3)-m3) * invDefaultA
		if q0 > quotLimitA || q1 > quotLimitA || q2 > quotLimitA || q3 > quotLimitA {
			break // rare: locate the exact word below
		}
		s0 += (int64(q0) ^ m0) - m0
		s1 += (int64(q1) ^ m1) - m1
		s2 += (int64(q2) ^ m2) - m2
		s3 += (int64(q3) ^ m3) - m3
	}
	sum = s0 + s1 + s2 + s3
	for ; i < len(enc); i++ {
		v := enc[i]
		m := v >> 63
		q := uint64((v^m)-m) * invDefaultA
		if q > quotLimitA {
			return 0, i
		}
		sum += (int64(q) ^ m) - m
	}
	return sum, -1
}

// CorruptionError reports a detected in-memory bit flip.
type CorruptionError struct {
	Index int
	Word  int64
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("ancode: word %d (0x%016x) is not a valid codeword: in-memory corruption detected", e.Index, uint64(e.Word))
}
