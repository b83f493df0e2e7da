// Package csvio implements CSV import and export for the ETL workflows
// of paper §2: the database can directly scan existing CSV files,
// reshape the result and append it to a persistent table (COPY t FROM
// 'file.csv'), with out-of-core streaming — files are decoded chunk by
// chunk, never fully materialized.
//
// The Reader is a byte-level RFC 4180 scanner that writes each field
// straight into the typed column slices of the chunk it fills: no
// []string per record and no types.Value per field. It accepts and
// rejects exactly what encoding/csv does with its default settings
// (quoted delimiters and newlines, "" escapes, CRLF, skipped blank
// lines), and reports its errors at the same record, line and column.
package csvio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"

	"repro/internal/types"
	"repro/internal/vector"
)

// Options configures CSV parsing.
type Options struct {
	Delimiter rune
	Header    bool
	// NullLiteral is treated as NULL (in addition to the empty string).
	NullLiteral string
}

// The record-level errors, worded as encoding/csv words them.
var (
	errBareQuote  = errors.New("bare \" in non-quoted-field")
	errQuote      = errors.New("extraneous or missing \" in quoted-field")
	errFieldCount = errors.New("wrong number of fields")
	errDelimiter  = errors.New("csv: invalid field or comment delimiter")
)

// parseError locates a record-level error (the text of csv.ParseError).
type parseError struct {
	startLine, line, col int
	err                  error
}

func (e *parseError) Error() string {
	if e.err == errFieldCount {
		return fmt.Sprintf("record on line %d: %v", e.line, e.err)
	}
	if e.startLine != e.line {
		return fmt.Sprintf("record on line %d; parse error on line %d, column %d: %v", e.startLine, e.line, e.col, e.err)
	}
	return fmt.Sprintf("parse error on line %d, column %d: %v", e.line, e.col, e.err)
}

func (e *parseError) Unwrap() error { return e.err }

// readBufSize is the scanner's read buffer; a longer line is gathered
// into Reader.long.
const readBufSize = 64 << 10

// Reader streams a CSV file as chunks typed against a table schema.
type Reader struct {
	f        io.Closer // nil when reading from a caller's io.Reader
	br       *bufio.Reader
	colTypes []types.Type
	nullLit  string
	comma    []byte // the delimiter's UTF-8 encoding
	row      int64  // records returned so far
	numLine  int    // lines read so far

	long  []byte // a line longer than the read buffer
	field []byte // the unescaped bytes of a quoted field

	// The record being scanned: fields seen, first field error.
	nfields  int
	fieldErr error

	// interned[c] holds the VARCHAR values of column c seen in the
	// current chunk, one copy each (nil for other types).
	interned [][]string
	seed     maphash.Seed
}

// NewReader opens path for streaming chunked reads.
func NewReader(path string, colTypes []types.Type, opts Options) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csv: %w", err)
	}
	r, err := newReader(f, readBufSize, colTypes, opts)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	r.f = f
	return r, nil
}

// newReader scans rd through a buffer of bufSize bytes and reads the
// header record if opts asks for one.
func newReader(rd io.Reader, bufSize int, colTypes []types.Type, opts Options) (*Reader, error) {
	comma := opts.Delimiter
	if comma == 0 {
		comma = ','
	}
	if comma == '"' || comma == '\r' || comma == '\n' || !utf8.ValidRune(comma) || comma == utf8.RuneError {
		return nil, errDelimiter
	}
	r := &Reader{
		br:       bufio.NewReaderSize(rd, bufSize),
		colTypes: colTypes,
		nullLit:  opts.NullLiteral,
		comma:    utf8.AppendRune(nil, comma),
		interned: make([][]string, len(colTypes)),
		seed:     maphash.MakeSeed(),
	}
	for c, t := range colTypes {
		if t == types.Varchar {
			r.interned[c] = make([]string, 2*vector.ChunkCapacity)
		}
	}
	if opts.Header {
		if _, err := r.readRecord(nil, 0); err != nil {
			return nil, fmt.Errorf("csv: header: %w", err)
		}
	}
	return r, nil
}

// NextChunk returns up to ChunkCapacity parsed rows, or nil at EOF.
func (r *Reader) NextChunk() (*vector.Chunk, error) {
	chunk := vector.NewChunk(r.colTypes)
	chunk.SetLen(vector.ChunkCapacity)
	for _, slots := range r.interned {
		clear(slots)
	}
	n := 0
	for n < vector.ChunkCapacity {
		ok, err := r.readRecord(chunk, n)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		r.row++
		n++
	}
	if n == 0 {
		return nil, nil
	}
	chunk.SetLen(n)
	return chunk, nil
}

// Close releases the file.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}

// readLine returns the next line with its newline, CRLF normalized to
// LF and a trailing CR before EOF dropped. The slice is valid until the
// next call. The error is non-nil only when no byte was read.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	r.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL is 1 when b ends in a newline.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// readRecord scans one record into row row of chunk (nil for the
// header), skipping blank lines first. It reports false at EOF. A
// record-level error wins over a field that does not parse: the record
// is scanned to its end before the first field error is returned.
func (r *Reader) readRecord(chunk *vector.Chunk, row int) (bool, error) {
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = r.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			continue
		}
		break
	}
	if errRead == io.EOF {
		return false, nil
	}
	if errRead != nil {
		return false, r.recordErr(chunk, errRead)
	}

	recLine := r.numLine
	lineNo, col := r.numLine, 1
	r.nfields, r.fieldErr = 0, nil
	multiByte := len(r.comma) > 1
	for {
		if len(line) == 0 || line[0] != '"' {
			// Unquoted field: up to the delimiter or the end of the line.
			i := r.scanUnquoted(line, 0)
			for multiByte && i < len(line) && line[i] == r.comma[0] && !bytes.HasPrefix(line[i:], r.comma) {
				i = r.scanUnquoted(line, i+1) // a lead byte of some other rune
			}
			switch {
			case i < len(line) && line[i] == '"':
				return false, r.recordErr(chunk, &parseError{recLine, r.numLine, col + i, errBareQuote})
			case i == len(line) || line[i] == '\n':
				r.putField(chunk, row, line[:i])
				return r.endRecord(chunk, recLine)
			}
			r.putField(chunk, row, line[:i])
			line = line[i+len(r.comma):]
			col += i + len(r.comma)
			continue
		}
		// Quoted field: unescape into r.field, across lines if need be.
		line = line[1:]
		col++
		r.field = r.field[:0]
		for {
			i := bytes.IndexByte(line, '"')
			if i >= 0 {
				r.field = append(r.field, line[:i]...)
				line = line[i+1:]
				col += i + 1
				if len(line) > 0 && line[0] == '"' {
					r.field = append(r.field, '"') // "" escape
					line = line[1:]
					col++
					continue
				}
				if bytes.HasPrefix(line, r.comma) {
					r.putField(chunk, row, r.field)
					line = line[len(r.comma):]
					col += len(r.comma)
					break
				}
				if len(line) == lengthNL(line) {
					r.putField(chunk, row, r.field)
					return r.endRecord(chunk, recLine)
				}
				return false, r.recordErr(chunk, &parseError{recLine, r.numLine, col - 1, errQuote})
			}
			if len(line) > 0 {
				// The field goes on past this line.
				r.field = append(r.field, line...)
				col += len(line)
				line, errRead = r.readLine()
				if len(line) > 0 {
					lineNo++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
				if errRead != nil {
					return false, r.recordErr(chunk, errRead)
				}
				continue
			}
			// EOF inside the quotes.
			return false, r.recordErr(chunk, &parseError{recLine, lineNo, col, errQuote})
		}
	}
}

// Byte-parallel search: a word of eight copies of one byte, and the
// high bit of every zero byte of a word.
const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
)

// zeroBytes flags the zero bytes of x; the lowest flag is exact (a
// borrow only ever sets flags above a real zero byte).
func zeroBytes(x uint64) uint64 { return (x - ones) &^ x & highs }

// scanUnquoted returns the index of the first delimiter lead byte,
// quote or newline in line at or after i, or len(line). It tests eight
// bytes at a time.
func (r *Reader) scanUnquoted(line []byte, i int) int {
	lead := r.comma[0]
	comma := uint64(lead) * ones
	for ; i+8 <= len(line); i += 8 {
		x := binary.LittleEndian.Uint64(line[i:])
		if m := zeroBytes(x^comma) | zeroBytes(x^('"'*ones)) | zeroBytes(x^('\n'*ones)); m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(line); i++ {
		if c := line[i]; c == lead || c == '"' || c == '\n' {
			return i
		}
	}
	return i
}

// putField stores the record's next field into row row of chunk (nil
// for the header), keeping the first field that does not parse.
func (r *Reader) putField(chunk *vector.Chunk, row int, b []byte) {
	c := r.nfields
	r.nfields++
	if chunk == nil || c >= len(r.colTypes) || r.fieldErr != nil {
		return
	}
	if err := r.setField(c, chunk.Cols[c], row, b); err != nil {
		r.fieldErr = fmt.Errorf("csv: row %d, column %d: %w", r.row+1, c+1, err)
	}
}

// endRecord checks the record's field count, then reports the first
// field that did not parse.
func (r *Reader) endRecord(chunk *vector.Chunk, recLine int) (bool, error) {
	if r.nfields != len(r.colTypes) {
		return false, r.recordErr(chunk, &parseError{recLine, recLine, 1, errFieldCount})
	}
	if r.fieldErr != nil {
		return false, r.fieldErr
	}
	return true, nil
}

// recordErr prefixes a record-level error with the record's number;
// the header (chunk nil) has none.
func (r *Reader) recordErr(chunk *vector.Chunk, err error) error {
	if chunk == nil {
		return err
	}
	return fmt.Errorf("csv: row %d: %w", r.row+1, err)
}

// setField parses field b into row row of col, column c, under
// Value.Cast's rules for a VARCHAR source: the null literal and, for
// every type but VARCHAR, the empty field are NULL; numbers and
// timestamps ignore surrounding white space; booleans are matched in
// lower case.
func (r *Reader) setField(c int, col *vector.Vector, row int, b []byte) error {
	if r.nullLit != "" && string(b) == r.nullLit {
		col.SetNull(row)
		return nil
	}
	t := col.Type
	if t == types.Varchar {
		col.Str[row] = r.intern(c, b)
		return nil
	}
	if len(b) == 0 {
		col.SetNull(row)
		return nil
	}
	// The parsers below keep nothing of their input, so they may read
	// the read buffer in place; error texts copy what they quote.
	s := unsafe.String(unsafe.SliceData(b), len(b))
	var err error
	switch t {
	case types.Boolean:
		var ok bool
		if col.Bools[row], ok = parseBool(b); !ok {
			err = fmt.Errorf("cannot cast %q to BOOLEAN", s)
		}
	case types.Integer:
		v, ok := parseDecimal(b)
		if !ok || v != int64(int32(v)) {
			if v, err = strconv.ParseInt(strings.TrimSpace(s), 10, 32); err != nil {
				err = fmt.Errorf("cannot cast %q to INTEGER", s)
			}
		}
		col.I32[row] = int32(v)
	case types.BigInt:
		v, ok := parseDecimal(b)
		if !ok {
			if v, err = strconv.ParseInt(strings.TrimSpace(s), 10, 64); err != nil {
				err = fmt.Errorf("cannot cast %q to BIGINT", s)
			}
		}
		col.I64[row] = v
	case types.Double:
		v, ok := parseExactFloat(b)
		if !ok {
			if v, err = strconv.ParseFloat(strings.TrimSpace(s), 64); err != nil {
				err = fmt.Errorf("cannot cast %q to DOUBLE", s)
			}
		}
		col.F64[row] = v
	case types.Timestamp:
		col.I64[row], err = types.ParseTimestamp(s)
	}
	return err
}

// parseDecimal parses an optionally signed run of at most 18 decimal
// digits, which cannot overflow. Anything else — white space, more
// digits, other characters — is left to strconv.ParseInt.
func parseDecimal(b []byte) (int64, bool) {
	digits := b
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		digits = b[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if b[0] == '-' {
		v = -v
	}
	return v, true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseExactFloat parses an optionally signed decimal without exponent
// whose digits, read as one integer m, stay below 2^53, with at most 22
// of them after the point. m and the power of ten are then exact
// doubles and one IEEE division rounds their quotient correctly — the
// value strconv.ParseFloat returns. Anything else is left to it. b is
// not empty.
func parseExactFloat(b []byte) (float64, bool) {
	digits := b
	if b[0] == '-' || b[0] == '+' {
		digits = b[1:]
	}
	var m uint64
	point := -1
	for i := 0; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			if digits[i] != '.' || point >= 0 {
				return 0, false
			}
			point = i
			continue
		}
		if m = m*10 + uint64(d); m >= 1<<53 { // m < 2^57: no wrap
			return 0, false
		}
	}
	nd, frac := len(digits), 0
	if point >= 0 {
		nd, frac = nd-1, len(digits)-1-point
	}
	if nd == 0 || frac >= len(pow10) {
		return 0, false
	}
	f := float64(m) / pow10[frac]
	if b[0] == '-' {
		f = -f
	}
	return f, true
}

// parseBool is strconv.ParseBool over the lower-cased field. No
// non-ASCII rune lower-cases into a boolean's spelling, so only ASCII
// letters are folded.
func parseBool(b []byte) (val, ok bool) {
	var lower [len("false")]byte
	if len(b) > len(lower) {
		return false, false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower[i] = c
	}
	switch string(lower[:len(b)]) {
	case "1", "t", "true":
		return true, true
	case "0", "f", "false":
		return false, true
	}
	return false, false
}

// intern copies a VARCHAR field out of the read buffer, once per
// distinct value of the column in the current chunk, so a value holds
// only its own bytes. The column's slots are an open-addressing set
// with twice as many slots as a chunk has rows, so a probe always ends
// on an empty slot; "" marks one, and the empty value needs no copy.
func (r *Reader) intern(c int, b []byte) string {
	if len(b) == 0 {
		return ""
	}
	slots := r.interned[c]
	mask := uint64(len(slots) - 1)
	for i := maphash.Bytes(r.seed, b) & mask; ; i = (i + 1) & mask {
		if slots[i] == "" {
			slots[i] = string(b)
			return slots[i]
		}
		if slots[i] == string(b) {
			return slots[i]
		}
	}
}
