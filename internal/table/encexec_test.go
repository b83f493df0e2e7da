package table

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/compress"
	"repro/internal/types"
	"repro/internal/vector"
)

// fuzzIters resolves the iteration count for a fuzz loop: the
// QUACK_FUZZ_ITERS environment variable when set (the nightly workflow
// raises it), def otherwise.
func fuzzIters(def int) int {
	if env := os.Getenv("QUACK_FUZZ_ITERS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// refMatch is the decode-then-filter reference: SQL comparison
// semantics over the decoded vector (NULL never satisfies a
// comparison; types.Compare promotes int/double pairs through the
// engine's total FP order).
func refMatch(v *vector.Vector, i int, f ZoneFilter) bool {
	switch f.Op {
	case ZoneIsNull:
		return v.IsNull(i)
	case ZoneNotNull:
		return !v.IsNull(i)
	}
	if f.Val.Null || v.IsNull(i) {
		return false
	}
	return compress.OpHolds(cmpOpFor(f.Op), types.Compare(v.Get(i), f.Val))
}

// fuzzVector builds one segment-sized column with an encoder-stressing
// shape (constant, runs, ramps across FOR width edges, wide random,
// int64/int32 extremes, NaN/±Inf doubles) and NULL pattern (none,
// sparse, leading, all).
func fuzzVector(rng *rand.Rand, typ types.Type, n int) *vector.Vector {
	v := vector.New(typ, SegRows)
	v.SetLen(n)
	shape := rng.Intn(5)
	for i := 0; i < n; i++ {
		var x int64
		switch shape {
		case 0: // constant
			x = 42
		case 1: // short runs
			x = int64(i/(1+rng.Intn(3)*8+1)) % 17
		case 2: // ramp: FOR with width near a bit boundary
			x = int64(-100 + i)
		case 3: // wide random
			x = rng.Int63() - rng.Int63()
		default: // extremes mixed in
			switch rng.Intn(4) {
			case 0:
				x = math.MaxInt64
			case 1:
				x = math.MinInt64
			default:
				x = int64(rng.Intn(1000))
			}
		}
		switch typ {
		case types.BigInt, types.Timestamp:
			v.I64[i] = x
		case types.Integer:
			v.I32[i] = int32(x)
		case types.Double:
			switch rng.Intn(12) {
			case 0:
				v.F64[i] = math.NaN()
			case 1:
				v.F64[i] = math.Inf(1)
			case 2:
				v.F64[i] = math.Inf(-1)
			default:
				v.F64[i] = float64(x%1000) / 4
			}
		case types.Varchar:
			v.Str[i] = "v" + strconv.Itoa(int(((x%7)+7)%7))
		case types.Boolean:
			v.Bools[i] = x&1 == 0
		}
	}
	switch rng.Intn(4) {
	case 1: // sparse NULLs
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 {
				v.SetNull(i)
			}
		}
	case 2: // leading NULLs (the encoded fill value aliases a later row)
		for i := 0; i < n/3; i++ {
			v.SetNull(i)
		}
	case 3: // all NULL
		for i := 0; i < n; i++ {
			v.SetNull(i)
		}
	}
	return v
}

// fuzzConst draws a comparison constant for the column type, biased
// toward values present in the data and the edges the kernels rewrite
// (domain bounds, non-integral doubles, NaN/Inf, NULL).
func fuzzConst(rng *rand.Rand, typ types.Type, v *vector.Vector, n int) types.Value {
	if rng.Intn(12) == 0 {
		return types.NewNull(typ)
	}
	if n > 0 && rng.Intn(2) == 0 {
		i := rng.Intn(n)
		if !v.IsNull(i) {
			val := v.Get(i)
			if val.Type == types.Double && rng.Intn(2) == 0 {
				val.F64 += 0.5 // just off a stored value
			}
			return val
		}
	}
	switch typ {
	case types.Integer:
		if rng.Intn(3) == 0 {
			// Double constants are pushable against INTEGER columns; the
			// kernel must mirror the promoted-to-float comparison exactly.
			switch rng.Intn(5) {
			case 0:
				return types.NewDouble(math.NaN())
			case 1:
				return types.NewDouble(math.Inf(1 - 2*rng.Intn(2)))
			case 2:
				return types.NewDouble(float64(rng.Intn(200)-100) + 0.5)
			default:
				return types.NewDouble(float64(rng.Intn(200) - 100))
			}
		}
		return types.NewBigInt(int64(rng.Intn(2000) - 1000))
	case types.BigInt, types.Timestamp:
		switch rng.Intn(5) {
		case 0:
			return types.NewBigInt(math.MaxInt64)
		case 1:
			return types.NewBigInt(math.MinInt64)
		default:
			return types.NewBigInt(rng.Int63() - rng.Int63())
		}
	case types.Double:
		switch rng.Intn(6) {
		case 0:
			return types.NewDouble(math.NaN())
		case 1:
			return types.NewDouble(math.Inf(1 - 2*rng.Intn(2)))
		default:
			return types.NewDouble(float64(rng.Intn(1000)-500) / 4)
		}
	default: // Varchar
		return types.NewVarchar("v" + strconv.Itoa(rng.Intn(9)))
	}
}

// sameRows reports the first row where got (rows 0..len(sel)-1) differs
// from the source vector's rows sel, NULL-ness included.
func sameRows(got, src *vector.Vector, sel []int) (int, bool) {
	if got.Len() != len(sel) {
		return -1, false
	}
	for k, r := range sel {
		if got.IsNull(k) != src.IsNull(r) ||
			!src.IsNull(r) && types.Compare(got.Get(k), src.Get(r)) != 0 {
			return r, false
		}
	}
	return 0, true
}

// TestEncodedKernelEquivalenceFuzz pins the selection-vector
// determinism rule: for every encoding (dictionary, FOR across
// width/overflow edges, RLE, plain), every operator and every constant
// the planner can push, encSelect must agree row for row with the
// filter applied to the source values the payload was encoded from —
// including NULL slots (whose encoded fill value aliases a real value)
// and NaN/±Inf under the engine's total FP order — and the segment
// gather must reproduce exactly the source's selected rows, and all of
// them when it decodes the whole payload.
func TestEncodedKernelEquivalenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	typs := []types.Type{types.BigInt, types.Integer, types.Double, types.Varchar, types.Timestamp, types.Boolean}
	ops := []ZoneOp{ZoneEq, ZoneNe, ZoneLt, ZoneLe, ZoneGt, ZoneGe, ZoneIsNull, ZoneNotNull}
	iters := fuzzIters(400)
	for trial := 0; trial < iters; trial++ {
		typ := typs[trial%len(typs)]
		n := 1 + rng.Intn(SegRows)
		v := fuzzVector(rng, typ, n)
		payload := encodeSegColumn(v, n)
		whole := vector.New(typ, SegRows)
		if err := gatherSeg(payload, typ, nil, whole, nil); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if r, ok := sameRows(whole, v, segRowIDs[:n]); !ok {
			t.Fatalf("trial %d (%v): whole decode differs from the source at row %d", trial, typ, r)
		}

		op := ops[rng.Intn(len(ops))]
		f := ZoneFilter{Col: 0, Op: op, Exact: true}
		if op != ZoneIsNull && op != ZoneNotNull {
			f.Val = fuzzConst(rng, typ, v, n)
		}

		match := make([]bool, n)
		for i := range match {
			match[i] = true
		}
		if !encSelect(payload, typ, f, match) {
			continue // declined filters are simply not applied — always safe
		}
		sel := make([]int, 0, n)
		for i := 0; i < n; i++ {
			want := refMatch(v, i, f)
			if match[i] != want {
				t.Fatalf("trial %d (%v %v const=%v) row %d (val=%v null=%v): kernel=%v reference=%v",
					trial, typ, f.Op, f.Val, i, v.Get(i), v.IsNull(i), match[i], want)
			}
			if match[i] {
				sel = append(sel, i)
			}
		}

		// Late materialization must reproduce exactly the selected rows.
		out := vector.New(typ, SegRows)
		if err := gatherSeg(payload, typ, sel, out, make([]int64, SegRows)); err != nil {
			t.Fatalf("trial %d (%v): gather: %v", trial, typ, err)
		}
		if r, ok := sameRows(out, v, sel); !ok {
			t.Fatalf("trial %d (%v): gathered rows differ from the source at row %d", trial, typ, r)
		}
	}
}

// TestEncSelectDeclinesDoubleOn64Bit pins the precision rule: double
// constants against the 64-bit int family must decline (float64
// promotion rounds values above 2^53, so an integer-domain rewrite
// could disagree with the engine's comparison).
func TestEncSelectDeclinesDoubleOn64Bit(t *testing.T) {
	v := vector.New(types.BigInt, SegRows)
	v.SetLen(4)
	huge := int64(1) << 55
	copy(v.I64, []int64{huge, huge + 1, 0, -1})
	payload := encodeSegColumn(v, 4)
	f := ZoneFilter{Col: 0, Op: ZoneEq, Val: types.NewDouble(float64(huge)), Exact: true}
	match := []bool{true, true, true, true}
	if encSelect(payload, types.BigInt, f, match) {
		t.Fatal("encSelect accepted a double constant on a BIGINT column")
	}
}
