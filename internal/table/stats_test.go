package table

import (
	"reflect"
	"testing"

	"repro/internal/types"
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
