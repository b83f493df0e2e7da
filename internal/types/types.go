// Package types defines QuackDB's SQL type system: logical types, typed
// values, and the coercion rules used by the binder and the vectorized
// expression evaluator.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type identifies a logical SQL type.
type Type uint8

// The supported logical types. The zero value Invalid marks unbound or
// erroneous expressions.
const (
	Invalid Type = iota
	Boolean
	Integer   // 32-bit signed
	BigInt    // 64-bit signed
	Double    // IEEE-754 float64
	Varchar   // UTF-8 string
	Timestamp // microseconds since Unix epoch, 64-bit signed
	Null      // the type of an untyped NULL literal
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case Boolean:
		return "BOOLEAN"
	case Integer:
		return "INTEGER"
	case BigInt:
		return "BIGINT"
	case Double:
		return "DOUBLE"
	case Varchar:
		return "VARCHAR"
	case Timestamp:
		return "TIMESTAMP"
	case Null:
		return "NULL"
	default:
		return "INVALID"
	}
}

// ParseType resolves a SQL type name to a Type. It accepts the common
// aliases (INT, INT4, INT8, LONG, FLOAT8, REAL, TEXT, STRING, BOOL, DATETIME).
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "BOOLEAN", "BOOL":
		return Boolean, nil
	case "INTEGER", "INT", "INT4":
		return Integer, nil
	case "BIGINT", "INT8", "LONG":
		return BigInt, nil
	case "DOUBLE", "FLOAT8", "REAL", "FLOAT":
		return Double, nil
	case "VARCHAR", "TEXT", "STRING", "CHAR":
		return Varchar, nil
	case "TIMESTAMP", "DATETIME":
		return Timestamp, nil
	default:
		return Invalid, fmt.Errorf("unknown type %q", name)
	}
}

// IsNumeric reports whether t is an arithmetic type.
func (t Type) IsNumeric() bool {
	return t == Integer || t == BigInt || t == Double || t == Boolean
}

// Width returns the fixed byte width of the physical representation, or
// -1 for variable-width types.
func (t Type) Width() int {
	switch t {
	case Boolean:
		return 1
	case Integer:
		return 4
	case BigInt, Double, Timestamp:
		return 8
	default:
		return -1
	}
}

// CommonType returns the type both operands should be cast to for a
// binary operation, following the usual numeric promotion ladder
// (BOOLEAN < INTEGER < BIGINT < DOUBLE). NULL adopts the other side.
func CommonType(a, b Type) (Type, error) {
	if a == b {
		return a, nil
	}
	if a == Null {
		return b, nil
	}
	if b == Null {
		return a, nil
	}
	rank := func(t Type) int {
		switch t {
		case Boolean:
			return 1
		case Integer:
			return 2
		case BigInt:
			return 3
		case Double:
			return 4
		default:
			return 0
		}
	}
	ra, rb := rank(a), rank(b)
	if ra > 0 && rb > 0 {
		if ra > rb {
			return a, nil
		}
		return b, nil
	}
	// Varchar/Timestamp only combine with themselves (handled above);
	// allow comparing timestamps with bigints (raw micros).
	if (a == Timestamp && b == BigInt) || (a == BigInt && b == Timestamp) {
		return Timestamp, nil
	}
	return Invalid, fmt.Errorf("cannot combine types %s and %s", a, b)
}

// Value is a single dynamically-typed SQL value, used by the
// value-at-a-time API, literals, and test fixtures. The vectorized engine
// never allocates Values on the hot path.
type Value struct {
	Type Type
	Null bool
	// One of the following is set according to Type.
	Bool bool
	I64  int64 // Integer, BigInt and Timestamp payloads
	F64  float64
	Str  string
}

// NewNull returns a NULL value of the given logical type.
func NewNull(t Type) Value { return Value{Type: t, Null: true} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value { return Value{Type: Boolean, Bool: v} }

// NewInt returns an INTEGER value.
func NewInt(v int32) Value { return Value{Type: Integer, I64: int64(v)} }

// NewBigInt returns a BIGINT value.
func NewBigInt(v int64) Value { return Value{Type: BigInt, I64: v} }

// NewDouble returns a DOUBLE value.
func NewDouble(v float64) Value { return Value{Type: Double, F64: v} }

// NewVarchar returns a VARCHAR value.
func NewVarchar(v string) Value { return Value{Type: Varchar, Str: v} }

// NewTimestamp returns a TIMESTAMP value from microseconds since epoch.
func NewTimestamp(micros int64) Value { return Value{Type: Timestamp, I64: micros} }

// String renders the value the way the CLI prints it.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case Boolean:
		return strconv.FormatBool(v.Bool)
	case Integer, BigInt:
		return strconv.FormatInt(v.I64, 10)
	case Double:
		return strconv.FormatFloat(v.F64, 'g', -1, 64)
	case Varchar:
		return v.Str
	case Timestamp:
		return time.UnixMicro(v.I64).UTC().Format("2006-01-02 15:04:05.000000")
	default:
		return "?"
	}
}

// AsFloat returns the value as a float64, for numeric types.
func (v Value) AsFloat() float64 {
	switch v.Type {
	case Double:
		return v.F64
	case Boolean:
		if v.Bool {
			return 1
		}
		return 0
	default:
		return float64(v.I64)
	}
}

// AsInt returns the value as an int64, truncating doubles.
func (v Value) AsInt() int64 {
	switch v.Type {
	case Double:
		return int64(v.F64)
	case Boolean:
		if v.Bool {
			return 1
		}
		return 0
	default:
		return v.I64
	}
}

// Cast converts v to the target type. NULLs cast to NULL of the target
// type. Lossy numeric downcasts that overflow return an error, matching
// the engine's strict cast semantics.
func (v Value) Cast(to Type) (Value, error) {
	if v.Type == to {
		return v, nil
	}
	if v.Null || v.Type == Null {
		return NewNull(to), nil
	}
	switch to {
	case Boolean:
		switch v.Type {
		case Integer, BigInt:
			return NewBool(v.I64 != 0), nil
		case Double:
			return NewBool(v.F64 != 0), nil
		case Varchar:
			b, err := strconv.ParseBool(strings.ToLower(v.Str))
			if err != nil {
				return Value{}, fmt.Errorf("cannot cast %q to BOOLEAN", v.Str)
			}
			return NewBool(b), nil
		}
	case Integer:
		switch v.Type {
		case Boolean:
			return NewInt(int32(v.AsInt())), nil
		case BigInt, Timestamp:
			if v.I64 > math.MaxInt32 || v.I64 < math.MinInt32 {
				return Value{}, fmt.Errorf("value %d out of range for INTEGER", v.I64)
			}
			return NewInt(int32(v.I64)), nil
		case Double:
			if v.F64 > math.MaxInt32 || v.F64 < math.MinInt32 {
				return Value{}, fmt.Errorf("value %g out of range for INTEGER", v.F64)
			}
			return NewInt(int32(v.F64)), nil
		case Varchar:
			i, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 32)
			if err != nil {
				return Value{}, fmt.Errorf("cannot cast %q to INTEGER", v.Str)
			}
			return NewInt(int32(i)), nil
		}
	case BigInt:
		switch v.Type {
		case Boolean, Integer, Timestamp:
			return NewBigInt(v.AsInt()), nil
		case Double:
			if v.F64 >= math.MaxInt64 || v.F64 <= math.MinInt64 {
				return Value{}, fmt.Errorf("value %g out of range for BIGINT", v.F64)
			}
			return NewBigInt(int64(v.F64)), nil
		case Varchar:
			i, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("cannot cast %q to BIGINT", v.Str)
			}
			return NewBigInt(i), nil
		}
	case Double:
		switch v.Type {
		case Boolean, Integer, BigInt, Timestamp:
			return NewDouble(v.AsFloat()), nil
		case Varchar:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
			if err != nil {
				return Value{}, fmt.Errorf("cannot cast %q to DOUBLE", v.Str)
			}
			return NewDouble(f), nil
		}
	case Varchar:
		return NewVarchar(v.String()), nil
	case Timestamp:
		switch v.Type {
		case Integer, BigInt:
			return NewTimestamp(v.I64), nil
		case Varchar:
			ts, err := ParseTimestamp(v.Str)
			if err != nil {
				return Value{}, err
			}
			return NewTimestamp(ts), nil
		}
	}
	return Value{}, fmt.Errorf("cannot cast %s to %s", v.Type, to)
}

// ParseTimestamp parses the timestamp formats the engine accepts and
// returns microseconds since the Unix epoch. The accepted formats are
// time.Parse's layouts "2006-01-02 15:04:05.000000", "2006-01-02
// 15:04:05", "2006-01-02T15:04:05Z07:00" and "2006-01-02", the first
// that parses winning. Every layout starts with a 10-byte date, so the
// byte after it picks the only layouts that can parse the field: a
// well-formed one costs one time.Parse call and no error value.
func ParseTimestamp(s string) (int64, error) {
	s = strings.TrimSpace(s)
	var layouts []string
	switch {
	case len(s) == 10:
		layouts = tsDate
	case len(s) > 10 && s[10] == ' ':
		// The six-digit layout can parse only a field whose last seven
		// bytes are its fraction; it accepts a few the other does not,
		// such as a signed fraction (".+12345").
		layouts = tsSeconds
		if c := s[len(s)-7]; c == '.' || c == ',' {
			layouts = tsMicros
		}
	case len(s) > 10 && s[10] == 'T':
		layouts = tsZoned
	}
	for _, layout := range layouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UnixMicro(), nil
		}
	}
	return 0, fmt.Errorf("cannot parse %q as TIMESTAMP", s)
}

// ParseTimestamp's layout lists, by the byte after the date.
var (
	tsDate    = []string{"2006-01-02"}
	tsSeconds = []string{"2006-01-02 15:04:05"}
	tsMicros  = []string{"2006-01-02 15:04:05.000000", "2006-01-02 15:04:05"}
	tsZoned   = []string{"2006-01-02T15:04:05Z07:00"}
)

// Compare orders two non-NULL values of the same logical family. It
// returns -1, 0 or +1. Numeric types compare by promoted value; it panics
// on incomparable types (the binder guarantees comparability).
// Floating-point comparison is a total order: NaN compares equal to
// itself and greater than every other value (including +Inf), so sorts
// and min/max merges are deterministic regardless of evaluation order.
func Compare(a, b Value) int {
	if a.Type == Varchar || b.Type == Varchar {
		return strings.Compare(a.Str, b.Str)
	}
	if a.Type == Double || b.Type == Double {
		return CompareFloat(a.AsFloat(), b.AsFloat())
	}
	ai, bi := a.AsInt(), b.AsInt()
	switch {
	case ai < bi:
		return -1
	case ai > bi:
		return 1
	default:
		return 0
	}
}

// CompareFloat orders two float64s under the engine's total FP order:
// -Inf < finite < +Inf < NaN, and NaN == NaN. Native < and > are false
// for any comparison involving NaN, which would make NaN "equal" to
// everything — not a valid ordering — and leave sort output dependent on
// arrival order.
func CompareFloat(a, b float64) int {
	anan, bnan := math.IsNaN(a), math.IsNaN(b)
	if anan || bnan {
		switch {
		case anan && bnan:
			return 0
		case anan:
			return 1
		default:
			return -1
		}
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// canonNaNBits is the one bit pattern every NaN key is stored under.
var canonNaNBits = math.Float64bits(math.NaN())

// CanonF64Bits returns the key bits of a DOUBLE: the bit pattern shared
// by every value CompareFloat calls equal to f, so -0 and +0 are one key
// and every NaN payload is one key. Group keys, DISTINCT sets, hash-join
// build and probe keys and the row-engine oracle all encode DOUBLEs
// through it; the normalized sort keys (extsort) draw the same classes.
func CanonF64Bits(f float64) uint64 {
	switch {
	case f != f:
		return canonNaNBits
	case f == 0:
		return 0
	}
	return math.Float64bits(f)
}

// Equal reports deep value equality including NULL-ness and type.
func Equal(a, b Value) bool {
	if a.Null != b.Null {
		return false
	}
	if a.Null {
		return a.Type == b.Type
	}
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case Boolean:
		return a.Bool == b.Bool
	case Varchar:
		return a.Str == b.Str
	case Double:
		return a.F64 == b.F64
	default:
		return a.I64 == b.I64
	}
}
