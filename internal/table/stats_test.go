package table

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

// TestDecodeColStatsIgnoresReservedBit: a stats blob written by a
// checkpoint that still set the all-distinct flag (statsFlagDistinct)
// decodes to the same min/max/counts as one written without it, so files
// from before the hint was dropped keep opening.
func TestDecodeColStatsIgnoresReservedBit(t *testing.T) {
	for _, c := range []struct {
		typ      types.Type
		min, max types.Value
	}{
		{types.BigInt, types.NewBigInt(-3), types.NewBigInt(1020)},
		{types.Varchar, types.NewVarchar("apac"), types.NewVarchar("emea")},
	} {
		want := []ColStats{{Valid: true, HasMinMax: true, Min: c.min, Max: c.max, NullCount: 2, NonNullCount: 1022}}
		blob := AppendColStats(nil, c.typ, want)
		// One segment: a one-byte count, then the segment's flags byte.
		if blob[1]&statsFlagDistinct != 0 {
			t.Fatalf("%s: AppendColStats still writes the reserved bit", c.typ)
		}
		blob[1] |= statsFlagDistinct
		got, rest, err := DecodeColStats(blob, c.typ)
		if err != nil {
			t.Fatalf("%s: %v", c.typ, err)
		}
		if len(rest) != 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v (%d bytes left), want %+v", c.typ, got, len(rest), want)
		}
	}
}

// widenValue is the reference fold: one boxed value at a time under
// types.Compare, the first-seen value winning a tie.
func (st *ColStats) widenValue(v types.Value) {
	if !st.Valid {
		return
	}
	if v.Null {
		st.NullCount++
		return
	}
	st.NonNullCount++
	if !st.HasMinMax {
		st.Min, st.Max = v, v
		st.HasMinMax = true
	} else {
		if types.Compare(v, st.Min) < 0 {
			st.Min = v
		}
		if types.Compare(v, st.Max) > 0 {
			st.Max = v
		}
	}
}

// sameStats compares stats field by field, doubles by their bits (so
// -0 and +0, or two NaN payloads, are told apart).
func sameStats(a, b ColStats) bool {
	same := func(x, y types.Value) bool {
		if x.Type == types.Double && y.Type == types.Double && !x.Null && !y.Null {
			return math.Float64bits(x.F64) == math.Float64bits(y.F64)
		}
		return reflect.DeepEqual(x, y)
	}
	return a.Valid == b.Valid && a.HasMinMax == b.HasMinMax &&
		a.NullCount == b.NullCount && a.NonNullCount == b.NonNullCount &&
		same(a.Min, b.Min) && same(a.Max, b.Max)
}

// TestWidenRangeMatchesWidenValue folds vectors of every column type,
// cut into ranges at random boundaries, and checks widenRange leaves
// the stats bit-identical to the reference fold.
func TestWidenRangeMatchesWidenValue(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan2 := math.Float64frombits(0x7ff8000000000001)
	specials := map[types.Type][]types.Value{
		types.BigInt:    {types.NewBigInt(math.MinInt64), types.NewBigInt(math.MaxInt64), types.NewBigInt(0), types.NewBigInt(-1)},
		types.Integer:   {types.NewInt(math.MinInt32), types.NewInt(math.MaxInt32), types.NewInt(0)},
		types.Timestamp: {types.NewTimestamp(math.MinInt64), types.NewTimestamp(0), types.NewTimestamp(1e15)},
		types.Double: {types.NewDouble(negZero), types.NewDouble(0), types.NewDouble(math.NaN()), types.NewDouble(nan2),
			types.NewDouble(math.Inf(1)), types.NewDouble(math.Inf(-1)), types.NewDouble(-1.5), types.NewDouble(2.5)},
		types.Varchar: {types.NewVarchar(""), types.NewVarchar("a"), types.NewVarchar("a\x00"), types.NewVarchar("\xff"), types.NewVarchar("b")},
		types.Boolean: {types.NewBool(false), types.NewBool(true)},
	}
	rng := rand.New(rand.NewSource(7))
	for typ, vals := range specials {
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(300)
			v := vector.New(typ, 0)
			for i := 0; i < n; i++ {
				switch r := rng.Intn(10); {
				case trial%7 == 0 || r < 2: // NULL runs; every seventh vector all NULL
					v.Append(types.NewNull(typ))
				default:
					v.Append(vals[rng.Intn(len(vals))])
				}
			}
			var want, got ColStats
			want.Valid, got.Valid = true, true
			for i := 0; i < n; i++ {
				want.widenValue(v.Get(i))
			}
			for start := 0; start < n; {
				k := min(1+rng.Intn(80), n-start)
				got.widenRange(v, start, k)
				start += k
			}
			if !sameStats(got, want) {
				t.Fatalf("%s trial %d: widenRange %+v, widenValue %+v", typ, trial, got, want)
			}
		}
	}
	// -0 before +0 keeps -0 at both ends; +0 before -0 keeps +0.
	v := vector.New(types.Double, 0)
	v.Append(types.NewDouble(negZero))
	v.Append(types.NewDouble(0))
	st := ColStats{Valid: true}
	st.widenRange(v, 0, 2)
	if !math.Signbit(st.Min.F64) || !math.Signbit(st.Max.F64) {
		t.Fatalf("-0 then +0: min %v max %v", st.Min.F64, st.Max.F64)
	}
	// Invalid stats stay untouched.
	bad := ColStats{}
	bad.widenRange(v, 0, 2)
	if !reflect.DeepEqual(bad, ColStats{}) {
		t.Fatalf("invalid stats widened: %+v", bad)
	}
}
