package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// hiPermille are the percentiles a timing may be reported at, in
// thousandths so that the sample count below is exact.
var hiPermille = []int{500, 750, 900, 950, 990, 999}

// pHi is the highest percentile that still has at least ten samples
// beyond it, or 0 when even the median does not.
func pHi(n int) float64 {
	best := 0
	for _, p := range hiPermille {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// timing is how one timed quantity is reported: the median, the sample
// count and the highest percentile the sample supports.
type timing struct {
	P50  float64 `json:"p50"`
	N    int     `json:"n"`
	PHi  float64 `json:"p_hi,omitempty"`    // which percentile, e.g. 95
	AtHi float64 `json:"at_p_hi,omitempty"` // its value
}

func summarize(samples []float64) timing {
	s := sortedCopy(samples)
	t := timing{P50: quantile(s, 0.5), N: len(s)}
	if p := pHi(len(s)); p > 0 {
		t.PHi, t.AtHi = p, quantile(s, p/100)
	}
	return t
}

// jain is Jain's fairness index of per-session completions: 1 when all
// sessions completed the same number, 1/n when one did all the work.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
