package types

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseTypeAliases(t *testing.T) {
	cases := map[string]Type{
		"BOOLEAN": Boolean, "bool": Boolean,
		"integer": Integer, "INT": Integer, "int4": Integer,
		"BIGINT": BigInt, "int8": BigInt, "long": BigInt,
		"double": Double, "REAL": Double, "float8": Double,
		"varchar": Varchar, "TEXT": Varchar, "string": Varchar,
		"timestamp": Timestamp, "DATETIME": Timestamp,
	}
	for name, want := range cases {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestCommonTypePromotion(t *testing.T) {
	cases := []struct{ a, b, want Type }{
		{Integer, BigInt, BigInt},
		{Integer, Double, Double},
		{Boolean, Integer, Integer},
		{BigInt, Double, Double},
		{Null, Varchar, Varchar},
		{Varchar, Null, Varchar},
		{Timestamp, BigInt, Timestamp},
		{Varchar, Varchar, Varchar},
	}
	for _, c := range cases {
		got, err := CommonType(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("CommonType(%v, %v) = %v, %v", c.a, c.b, got, err)
		}
	}
	if _, err := CommonType(Varchar, Double); err == nil {
		t.Error("VARCHAR+DOUBLE combined")
	}
}

func TestCastMatrix(t *testing.T) {
	cases := []struct {
		in   Value
		to   Type
		want string
	}{
		{NewInt(7), BigInt, "7"},
		{NewInt(7), Double, "7"},
		{NewInt(0), Boolean, "false"},
		{NewBigInt(42), Varchar, "42"},
		{NewDouble(2.9), Integer, "2"},
		{NewVarchar("19"), Integer, "19"},
		{NewVarchar(" 2.5 "), Double, "2.5"},
		{NewVarchar("true"), Boolean, "true"},
		{NewBool(true), Integer, "1"},
		{NewBigInt(1700000000000000), Timestamp, "2023-11-14 22:13:20.000000"},
	}
	for _, c := range cases {
		got, err := c.in.Cast(c.to)
		if err != nil {
			t.Errorf("cast %v to %v: %v", c.in, c.to, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("cast %v to %v = %q, want %q", c.in, c.to, got.String(), c.want)
		}
	}
}

func TestCastErrors(t *testing.T) {
	bad := []struct {
		in Value
		to Type
	}{
		{NewVarchar("duck"), BigInt},
		{NewVarchar("1.5.2"), Double},
		{NewBigInt(1 << 40), Integer},
		{NewDouble(1e300), BigInt},
		{NewVarchar("maybe"), Boolean},
	}
	for _, c := range bad {
		if _, err := c.in.Cast(c.to); err == nil {
			t.Errorf("cast %v to %v accepted", c.in, c.to)
		}
	}
}

func TestNullCasts(t *testing.T) {
	v, err := NewNull(BigInt).Cast(Varchar)
	if err != nil || !v.Null || v.Type != Varchar {
		t.Fatalf("%v %v", v, err)
	}
}

func TestCompareOrdering(t *testing.T) {
	if Compare(NewInt(1), NewInt(2)) >= 0 {
		t.Error("1 < 2")
	}
	if Compare(NewVarchar("a"), NewVarchar("b")) >= 0 {
		t.Error("a < b")
	}
	if Compare(NewDouble(1.5), NewInt(1)) <= 0 {
		t.Error("1.5 > 1")
	}
	if Compare(NewBigInt(5), NewBigInt(5)) != 0 {
		t.Error("5 == 5")
	}
}

// TestCompareTotalFPOrder: Compare over DOUBLE is a total order with
// NaN greatest — -Inf < finite < +Inf < NaN and NaN == NaN — so min/max
// merges and sort merges are order-insensitive even with NaN present.
func TestCompareTotalFPOrder(t *testing.T) {
	nan := NewDouble(math.NaN())
	ladder := []Value{NewDouble(math.Inf(-1)), NewDouble(-1e300), NewDouble(0),
		NewDouble(1e300), NewDouble(math.Inf(1)), nan}
	for i, lo := range ladder {
		for j, hi := range ladder {
			c := Compare(lo, hi)
			switch {
			case i < j && c >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", lo, hi, c)
			case i > j && c <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", lo, hi, c)
			case i == j && c != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", lo, hi, c)
			}
		}
	}
	if Compare(nan, NewBigInt(5)) <= 0 {
		t.Error("NaN must compare greater than promoted integers")
	}
	if CompareFloat(math.NaN(), math.NaN()) != 0 {
		t.Error("CompareFloat(NaN, NaN) != 0")
	}
}

func TestCompareIntFloatConsistency(t *testing.T) {
	f := func(a int32, b int32) bool {
		ci := Compare(NewInt(a), NewInt(b))
		cf := Compare(NewDouble(float64(a)), NewDouble(float64(b)))
		return (ci < 0) == (cf < 0) && (ci == 0) == (cf == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqualSemantics(t *testing.T) {
	if !Equal(NewNull(BigInt), NewNull(BigInt)) {
		t.Error("NULLs of same type should be Equal")
	}
	if Equal(NewNull(BigInt), NewNull(Double)) {
		t.Error("NULLs of different type")
	}
	if Equal(NewInt(1), NewBigInt(1)) {
		t.Error("different types should not be Equal")
	}
	if !Equal(NewVarchar("x"), NewVarchar("x")) {
		t.Error("equal strings")
	}
}

func TestParseTimestampFormats(t *testing.T) {
	good := []string{
		"2023-11-14 22:13:20",
		"2023-11-14 22:13:20.123456",
		"2023-11-14",
	}
	for _, s := range good {
		if _, err := ParseTimestamp(s); err != nil {
			t.Errorf("%q rejected: %v", s, err)
		}
	}
	if _, err := ParseTimestamp("birthday"); err == nil {
		t.Error("junk timestamp accepted")
	}
}

// parseTimestampLoop is ParseTimestamp as it was first written: each
// layout in turn, the first that parses winning. It is the reference
// the shape dispatch must agree with.
func parseTimestampLoop(s string) (int64, error) {
	s = strings.TrimSpace(s)
	for _, layout := range []string{
		"2006-01-02 15:04:05.000000",
		"2006-01-02 15:04:05",
		"2006-01-02T15:04:05Z07:00",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UnixMicro(), nil
		}
	}
	return 0, fmt.Errorf("cannot parse %q as TIMESTAMP", s)
}

// TestParseTimestampMatchesLayoutLoop: over generated fields — every
// fraction length 0–9 with '.' and ',', 'T' with zones, date-only,
// surrounding white space, one-digit hours, signed fractions and
// garbage — ParseTimestamp accepts and rejects what the layout loop
// does, with the same value and error text.
func TestParseTimestampMatchesLayoutLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	date := func() string {
		return fmt.Sprintf("%04d-%02d-%02d", 1900+rng.Intn(200), 1+rng.Intn(13), 1+rng.Intn(31))
	}
	clock := func() string {
		h := fmt.Sprintf("%02d", rng.Intn(25))
		if rng.Intn(8) == 0 {
			h = fmt.Sprint(rng.Intn(10))
		}
		return fmt.Sprintf("%s:%02d:%02d", h, rng.Intn(61), rng.Intn(61))
	}
	frac := func() string {
		n := rng.Intn(10)
		if n == 0 {
			return ""
		}
		sep := "."
		if rng.Intn(6) == 0 {
			sep = ","
		}
		d := digits(n)
		if rng.Intn(10) == 0 {
			d = "+-"[rng.Intn(2):][:1] + d[1:]
		}
		return sep + d
	}
	zones := []string{"Z", "+00:00", "+01:00", "-07:30", "+14:00", "+5:00", "", "z", "UTC"}
	space := []string{"", " ", "\t", "  ", "\n "}
	garbage := []string{"", "birthday", "2023-11-14x", "2023/11/14", "20231114", "2023-11-14 ",
		"2023-11-14  22:13:20", "2023-11-14 22:13", "2023-11-14T22:13:20", "2023-11-14 22:13:20.",
		"2023-11-14 22:13:20.+12345", "2023-11-14 22:13:20.-00000", "2023-11-14 22:13:20.1234567890123",
		"2023-02-30", "2023-11-14 24:00:00", "2023-11-14 22:13:20.123456 ", "0000-01-01", "9999-12-31 23:59:59.999999"}
	var fields []string
	for i := 0; i < 20_000; i++ {
		var f string
		switch rng.Intn(5) {
		case 0:
			f = date()
		case 1, 2:
			f = date() + " " + clock() + frac()
		case 3:
			f = date() + "T" + clock() + frac() + zones[rng.Intn(len(zones))]
		default:
			f = garbage[rng.Intn(len(garbage))]
			if f != "" && rng.Intn(2) == 0 {
				k := rng.Intn(len(f))
				f = f[:k] + string(rune(' '+rng.Intn(95))) + f[k+1:]
			}
		}
		fields = append(fields, space[rng.Intn(len(space))]+f+space[rng.Intn(len(space))])
	}
	fields = append(fields, garbage...)
	accepted := 0
	for _, f := range fields {
		got, gotErr := ParseTimestamp(f)
		want, wantErr := parseTimestampLoop(f)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
			t.Fatalf("%q: got %d, %v; layout loop %d, %v", f, got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			accepted++
		}
	}
	if accepted < len(fields)/3 || accepted == len(fields) {
		t.Fatalf("%d of %d fields accepted: the generator checks too little", accepted, len(fields))
	}
}

// TestParseTimestampAllocations: the three shapes COPY meets most parse
// without allocating.
func TestParseTimestampAllocations(t *testing.T) {
	for _, s := range []string{"2024-01-02 03:04:05.123456", "2024-01-02 03:04:05", "2024-01-02"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ParseTimestamp(s); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%q: %.0f allocations per parse", s, n)
		}
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := map[string]Value{
		"NULL": NewNull(BigInt),
		"true": NewBool(true),
		"-7":   NewInt(-7),
		"1.25": NewDouble(1.25),
		"hi":   NewVarchar("hi"),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v renders %q, want %q", v.Type, got, want)
		}
	}
}

func TestWidths(t *testing.T) {
	if Boolean.Width() != 1 || Integer.Width() != 4 || BigInt.Width() != 8 || Varchar.Width() != -1 {
		t.Fatal("widths")
	}
}
