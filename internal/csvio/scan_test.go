package csvio

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"

	"repro/internal/types"
	"repro/internal/vector"
)

// The oracle is the reader this package had before it scanned bytes
// itself: encoding/csv for the records and a boxed Value.Cast per field.

func oracleParseField(field string, t types.Type, nullLit string) (types.Value, error) {
	if nullLit != "" && field == nullLit {
		return types.NewNull(t), nil
	}
	if field == "" && t != types.Varchar {
		return types.NewNull(t), nil
	}
	return types.NewVarchar(field).Cast(t)
}

// oracleRead reads data the old way: every row it returns, and the
// error it stopped on.
func oracleRead(data []byte, colTypes []types.Type, opts Options) ([][]types.Value, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	if opts.Delimiter != 0 {
		cr.Comma = opts.Delimiter
	}
	cr.FieldsPerRecord = len(colTypes)
	if opts.Header {
		if _, err := cr.Read(); err != nil && err != io.EOF {
			return nil, fmt.Errorf("csv: header: %w", err)
		}
	}
	var rows [][]types.Value
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, fmt.Errorf("csv: row %d: %w", len(rows)+1, err)
		}
		row := make([]types.Value, len(rec))
		for c, field := range rec {
			v, err := oracleParseField(field, colTypes[c], opts.NullLiteral)
			if err != nil {
				return rows, fmt.Errorf("csv: row %d, column %d: %w", len(rows)+1, c+1, err)
			}
			row[c] = v
		}
		rows = append(rows, row)
	}
}

// scanRead reads data through the scanner with a bufSize-byte buffer.
func scanRead(data []byte, colTypes []types.Type, opts Options, bufSize int) ([][]types.Value, error) {
	r, err := newReader(bytes.NewReader(data), bufSize, colTypes, opts)
	if err != nil {
		return nil, err
	}
	var rows [][]types.Value
	for {
		c, err := r.NextChunk()
		if err != nil {
			return rows, err
		}
		if c == nil {
			return rows, nil
		}
		for i := 0; i < c.Len(); i++ {
			rows = append(rows, c.Row(i))
		}
	}
}

// sameValue compares NULL-ness and payload; doubles by their bits.
func sameValue(a, b types.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.Type == types.Double && b.Type == types.Double {
		return math.Float64bits(a.F64) == math.Float64bits(b.F64)
	}
	return types.Equal(a, b)
}

// diffReaders reports how the scanner departs from the oracle on data,
// or "" when both return the same rows and the same error text.
func diffReaders(data []byte, colTypes []types.Type, opts Options, bufSize int) string {
	want, wantErr := oracleRead(data, colTypes, opts)
	got, gotErr := scanRead(data, colTypes, opts, bufSize)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		return fmt.Sprintf("error: scanner %v, encoding/csv %v", gotErr, wantErr)
	}
	if wantErr != nil {
		// The scanner fails a whole chunk, so compare only the error.
		return ""
	}
	if len(got) != len(want) {
		return fmt.Sprintf("scanner read %d rows, encoding/csv %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !sameValue(got[i][c], want[i][c]) {
				return fmt.Sprintf("row %d column %d: scanner %#v, encoding/csv %#v", i+1, c+1, got[i][c], want[i][c])
			}
		}
	}
	return ""
}

func TestReaderMatchesEncodingCSV(t *testing.T) {
	bi, vc, db := types.BigInt, types.Varchar, types.Double
	long := strings.Repeat("x", 300)
	cases := []struct {
		name  string
		data  string
		types []types.Type
		opts  Options
	}{
		{"plain", "1,a,2.5\n2,b,3\n", []types.Type{bi, vc, db}, Options{}},
		{"quoted delimiter", "1,\"a,b\",2\n", []types.Type{bi, vc, db}, Options{}},
		{"escaped quote", "1,\"say \"\"hi\"\"\",2\n", []types.Type{bi, vc, db}, Options{}},
		{"quoted number", "\"7\",\"x\",\" 1.5 \"\n", []types.Type{bi, vc, db}, Options{}},
		{"embedded newline", "1,\"two\nlines\",3\n4,x,5\n", []types.Type{bi, vc, db}, Options{}},
		{"embedded crlf", "1,\"two\r\nlines\",3\r\n4,x,5\r\n", []types.Type{bi, vc, db}, Options{}},
		{"lone cr in field", "1,a\rb,3\n", []types.Type{bi, vc, db}, Options{}},
		{"crlf", "1,a,2\r\n3,b,4\r\n", []types.Type{bi, vc, db}, Options{}},
		{"trailing cr at eof", "1,a,2\r", []types.Type{bi, vc, db}, Options{}},
		{"blank lines", "\n1,a,2\n\n\r\n3,b,4\n\n", []types.Type{bi, vc, db}, Options{}},
		{"no final newline", "1,a,2\n3,b,4", []types.Type{bi, vc, db}, Options{}},
		{"empty file", "", []types.Type{bi}, Options{}},
		{"only blank lines", "\n\n\r\n", []types.Type{bi}, Options{}},
		{"empty fields", ",,\n", []types.Type{bi, vc, db}, Options{}},
		{"quoted empty", "\"\",\"\",\"\"\n", []types.Type{bi, vc, db}, Options{}},
		{"bare quote", "1,a\"b,2\n", []types.Type{bi, vc, db}, Options{}},
		{"bare quote second line", "1,a,2\n3,b\",4\n", []types.Type{bi, vc, db}, Options{}},
		{"stray quote after field", "1,\"a\"b,2\n", []types.Type{bi, vc, db}, Options{}},
		{"unterminated quote", "1,\"abc\n", []types.Type{bi, vc}, Options{}},
		{"unterminated quote over lines", "1,\"abc\ndef\n\n", []types.Type{bi, vc}, Options{}},
		{"stray quote on later line", "1,\"ab\nc\"d\",3\n", []types.Type{bi, vc, bi}, Options{}},
		{"bare quote after multiline field", "1,\"a\nb\",x\"y\n", []types.Type{bi, vc, vc}, Options{}},
		{"ragged short", "1,2,3\n4,5\n", []types.Type{bi, bi, bi}, Options{}},
		{"ragged long", "1,2\n3,4,5\n", []types.Type{bi, bi}, Options{}},
		{"ragged with bad value", "x,2\n", []types.Type{bi, bi, bi}, Options{}},
		{"bad value then bare quote", "x,a\"b\n", []types.Type{bi, vc}, Options{}},
		{"header", "id,name\n1,a\n", []types.Type{bi, vc}, Options{Header: true}},
		{"header only", "id,name\n", []types.Type{bi, vc}, Options{Header: true}},
		{"header ragged", "id\n1,a\n", []types.Type{bi, vc}, Options{Header: true}},
		{"header bare quote", "i\"d,name\n1,a\n", []types.Type{bi, vc}, Options{Header: true}},
		{"header untyped text", "id,price\n1,2\n", []types.Type{bi, db}, Options{Header: true}},
		{"semicolon", "1;\"a;b\";2\n", []types.Type{bi, vc, bi}, Options{Delimiter: ';'}},
		{"tab", "1\ta b\t2\n", []types.Type{bi, vc, bi}, Options{Delimiter: '\t'}},
		{"pipe", "1|a,b|2\n", []types.Type{bi, vc, bi}, Options{Delimiter: '|'}},
		{"multibyte delimiter", "1é\"aéb\"é2\n", []types.Type{bi, vc, bi}, Options{Delimiter: 'é'}},
		{"null literal", "1,NA,NA\nNA,x,2\n", []types.Type{bi, vc, db}, Options{NullLiteral: "NA"}},
		{"quoted null literal", "\"NA\",\"NA\"\n", []types.Type{bi, vc}, Options{NullLiteral: "NA"}},
		{"spaces around numbers", " 12 ,\t-3\t, 1e3 \n", []types.Type{bi, types.Integer, db}, Options{}},
		{"spaces around text", " 12 , a \n", []types.Type{vc, vc}, Options{}},
		{"integer overflow", "2147483648\n", []types.Type{types.Integer}, Options{}},
		{"bigint overflow", "9223372036854775808\n", []types.Type{bi}, Options{}},
		{"min int64", "-9223372036854775808\n", []types.Type{bi}, Options{}},
		{"doubles", "NaN\n-0\n+Inf\n-inf\n1e400\n0x1p-2\n1_000\n", []types.Type{db}, Options{}},
		{"decimal doubles", "604.6602879796196\n9007199254740993\n9007199254740992\n-0.0\n+.5\n5.\n" +
			"000000000000000000001.5\n0.0000000000000000000001\n12345678901234567890\n-1234.5678\n", []types.Type{db}, Options{}},
		{"20-digit doubles", "18446744073709551616\n18446744073709551617\n-18446744073709551617\n36893488147419103232\n", []types.Type{db}, Options{}},
		{"lone point", ".\n", []types.Type{db}, Options{}},
		{"signed lone point", "-.\n", []types.Type{db}, Options{}},
		{"two points", "1.2.3\n", []types.Type{db}, Options{}},
		{"decimal integers", "007\n-0\n+5\n999999999999999999\n-9223372036854775807\n", []types.Type{bi}, Options{}},
		{"inner sign", "1-2\n", []types.Type{bi}, Options{}},
		{"double sign", "--1\n", []types.Type{bi}, Options{}},
		{"lone sign", "+\n", []types.Type{bi}, Options{}},
		{"booleans", "true\nFALSE\nT\nf\n1\n0\nTrue\n", []types.Type{types.Boolean}, Options{}},
		{"bad boolean", "yes\n", []types.Type{types.Boolean}, Options{}},
		{"padded boolean", " true\n", []types.Type{types.Boolean}, Options{}},
		{"timestamps", "2024-01-02 03:04:05\n2024-01-02\n 2024-01-02T03:04:05+02:00 \n2024-01-02 03:04:05.123456\n", []types.Type{types.Timestamp}, Options{}},
		{"bad timestamp", "2024-13-01\n", []types.Type{types.Timestamp}, Options{}},
		{"bad number on row 3", "1\n2\nx\n", []types.Type{bi}, Options{}},
		{"record longer than buffer", "1," + long + ",2\n3,\"" + long + "\n" + long + "\",4\n", []types.Type{bi, vc, bi}, Options{}},
		{"utf8 and nul bytes", "1,héllo\x00,2\n", []types.Type{bi, vc, bi}, Options{}},
	}
	for _, tc := range cases {
		for _, bufSize := range []int{16, readBufSize} {
			if d := diffReaders([]byte(tc.data), tc.types, tc.opts, bufSize); d != "" {
				t.Errorf("%s (buffer %d): %s", tc.name, bufSize, d)
			}
		}
	}
}

func TestReaderRejectsInvalidDelimiter(t *testing.T) {
	for _, d := range []rune{'"', '\r', '\n', utf8.RuneError, -1} {
		if _, err := newReader(strings.NewReader("1\n"), 16, []types.Type{types.BigInt}, Options{Delimiter: d}); err == nil {
			t.Errorf("delimiter %q accepted", d)
		}
	}
}

func stringData(s string) *byte { return unsafe.StringData(s) }

// TestVarcharRetainsOnlyItsBytes checks that a VARCHAR value does not
// alias the read buffer and that repeats within a chunk share a copy.
func TestVarcharRetainsOnlyItsBytes(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "%d,east\n%d,west\n", 2*i, 2*i+1)
	}
	r, err := newReader(strings.NewReader(sb.String()), 64, []types.Type{types.BigInt, types.Varchar}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.NextChunk()
	if err != nil {
		t.Fatal(err)
	}
	strs := c.Cols[1].Str
	if strs[0] != "east" || strs[1] != "west" || strs[199] != "west" {
		t.Fatalf("values %q %q %q", strs[0], strs[1], strs[199])
	}
	if stringData(strs[0]) != stringData(strs[198]) {
		t.Error("repeated value in one chunk was copied twice")
	}
	if stringData(strs[0]) == stringData(strs[1]) {
		t.Error("distinct values share storage")
	}
}

// TestNextChunkAllocations pins the scanner's allocations: per chunk,
// not per row, for non-VARCHAR columns. The three TIMESTAMP columns
// hold the shapes ParseTimestamp accepts without a zone: six fraction
// digits (how COPY TO writes them), whole seconds and a bare date.
func TestNextChunkAllocations(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 4*vector.ChunkCapacity; i++ {
		fmt.Fprintf(&sb, "%d,%d,%g,%t,2024-01-02 03:04:%02d.000000,2024-01-02 03:04:%02d,2024-01-%02d\n",
			i, i%100, float64(i)/7, i%2 == 0, i%60, i%60, 1+i%28)
	}
	data := []byte(sb.String())
	typs := []types.Type{types.BigInt, types.Integer, types.Double, types.Boolean,
		types.Timestamp, types.Timestamp, types.Timestamp}
	allocs := testing.AllocsPerRun(5, func() {
		r, err := newReader(bytes.NewReader(data), readBufSize, typs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			c, err := r.NextChunk()
			if err != nil {
				t.Fatal(err)
			}
			if c == nil {
				return
			}
		}
	})
	// A chunk is its vectors and their slices; the reader is a handful.
	if perRow := allocs / float64(4*vector.ChunkCapacity); perRow > 0.05 {
		t.Fatalf("%.0f allocations for %d rows (%.3f per row)", allocs, 4*vector.ChunkCapacity, perRow)
	}
}

// TestParseExactFloatMatchesStrconv: wherever the exact fast path
// answers, it answers strconv.ParseFloat's bits. The inputs include
// 20-digit integers k·2^64 + r, whose digits wrap a uint64 to r.
func TestParseExactFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hits := 0
	for i := 0; i < 200_000; i++ {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
		var s string
		switch i % 3 {
		case 0:
			s = strconv.FormatFloat(v, 'g', -1, 64)
		case 1:
			s = strconv.FormatFloat(v, 'f', rng.Intn(25), 64)
		default:
			k := new(big.Int).Lsh(big.NewInt(rng.Int63n(5)+1), 64)
			s = k.Add(k, big.NewInt(rng.Int63n(1<<53))).String()
			if rng.Intn(2) == 0 {
				s = "-" + s
			}
		}
		got, ok := parseExactFloat([]byte(s))
		if !ok {
			continue
		}
		hits++
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: fast path %v, strconv %v (%v)", s, got, want, err)
		}
	}
	if hits < 50_000 {
		t.Fatalf("fast path taken %d times: the test checks too little", hits)
	}
}

// fuzzDelims are the delimiters FuzzCSVReader draws from.
var fuzzDelims = []rune{',', ';', '\t', '|', ' ', 'é'}

// fuzzNulls are the null literals FuzzCSVReader draws from.
var fuzzNulls = []string{"", "NA", `\N`}

// fuzzTypes are the column types FuzzCSVReader draws from.
var fuzzTypes = []types.Type{types.Boolean, types.Integer, types.BigInt, types.Double, types.Varchar, types.Timestamp}

// FuzzCSVReader feeds arbitrary bytes to the scanner and to the oracle:
// both must fail with the same error text or return the same rows,
// NULL-ness and values (doubles compared by bits).
func FuzzCSVReader(f *testing.F) {
	f.Add([]byte("1,a,2.5\n2,\"b\"\"c\",\n"), byte(0), false, []byte{2, 4, 3})
	f.Add([]byte("id;x\n1;\"a;\nb\"\r\n\n3;NA\n"), byte(1|1<<3), true, []byte{2, 4})
	f.Add([]byte("true\t2024-01-02\n0\t 2024-01-02 03:04:05 \n"), byte(2), false, []byte{0, 5})
	f.Add([]byte("1,a\"b\n"), byte(0), false, []byte{1, 4})
	f.Add([]byte("\"x\ny\"z\n"), byte(0|1<<5), false, []byte{4})
	f.Add([]byte("604.6602879796196,-12\n+.5,007\n"), byte(0), false, []byte{3, 2})
	f.Add([]byte("18446744073709551616\n-18446744073709551617\n36893488147419103232\n"), byte(0), false, []byte{3})
	f.Fuzz(func(t *testing.T, data []byte, sel byte, header bool, typeSel []byte) {
		if len(typeSel) == 0 || len(typeSel) > 8 {
			return
		}
		colTypes := make([]types.Type, len(typeSel))
		for i, b := range typeSel {
			colTypes[i] = fuzzTypes[int(b)%len(fuzzTypes)]
		}
		opts := Options{
			Delimiter:   fuzzDelims[int(sel&7)%len(fuzzDelims)],
			NullLiteral: fuzzNulls[int(sel>>3&3)%len(fuzzNulls)],
			Header:      header,
		}
		bufSize := readBufSize
		if sel&(1<<5) != 0 {
			bufSize = 16
		}
		if d := diffReaders(data, colTypes, opts, bufSize); d != "" {
			t.Fatalf("%q types %v opts %+v buffer %d: %s", data, colTypes, opts, bufSize, d)
		}
	})
}

// benchCSV is rows of the benchmark's fact shape: id, one of eight
// regions, qty, a full-precision price and a dimension key.
func benchCSV(rows int) []byte {
	regions := []string{"afr", "apac", "cis", "emea", "eu", "latam", "mena", "na"}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < rows; i++ {
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ',')
		buf = append(buf, regions[rng.Intn(len(regions))]...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, rng.Int63n(100)+1, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, rng.Float64()*1000, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, rng.Int63n(10000), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// BenchmarkReader reports ns/row and allocs/row of NextChunk on the
// fact shape (BIGINT, VARCHAR, BIGINT, DOUBLE, BIGINT).
func BenchmarkReader(b *testing.B) {
	const rows = 100_000
	data := benchCSV(rows)
	typs := []types.Type{types.BigInt, types.Varchar, types.BigInt, types.Double, types.BigInt}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := newReader(bytes.NewReader(data), readBufSize, typs, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			c, err := r.NextChunk()
			if err != nil {
				b.Fatal(err)
			}
			if c == nil {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
