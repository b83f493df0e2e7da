package table

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// forgedBigInt is a BIGINT segment payload without NULLs whose header
// and RLE body (one run of 7s) both declare rows rows: a handful of
// bytes that, trusted, size a vector of rows values.
func forgedBigInt(rows uint64) []byte {
	const rleTag = 1 // compress's scheme tag for run-length encoding
	out := binary.AppendUvarint([]byte{segEncInt64}, rows)
	out = append(out, 0, rleTag) // no validity bytes; the int64 body
	out = binary.AppendUvarint(out, rows)
	out = binary.AppendUvarint(out, rows)
	return binary.AppendVarint(out, 7)
}

// TestSegmentPayloadRowBound: a payload declaring more rows than a
// segment holds is rejected by the header before anything is sized from
// it — by a whole decode, by a scan of a cold table that loaded it, and
// by the kernels.
func TestSegmentPayloadRowBound(t *testing.T) {
	for _, rows := range []uint64{1 << 40, SegRows + 1} {
		payload := forgedBigInt(rows)
		v := vector.New(types.BigInt, SegRows)
		if err := gatherSeg(payload, types.BigInt, nil, v, nil); err == nil {
			t.Fatalf("%d rows: whole decode accepted the payload (%d rows)", rows, v.Len())
		}
		match := make([]bool, SegRows)
		if encSelect(payload, types.BigInt, ZoneFilter{Op: ZoneEq, Val: types.NewBigInt(7), Exact: true}, match) {
			t.Fatalf("%d rows: kernel accepted the payload", rows)
		}

		loader := func(int) ([][]byte, int64, error) { return [][]byte{payload}, int64(len(payload)), nil }
		dt := NewPersisted([]types.Type{types.BigInt}, SegRows, loader, nil)
		for _, encodedExec := range []bool{false, true} {
			src, err := dt.NewMorselSource(txn.NewManager(nil).Begin(), ScanOptions{
				EncodedExec: encodedExec,
				ZoneFilters: []ZoneFilter{{Op: ZoneGe, Val: types.NewBigInt(0), Exact: true}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := src.Worker().NextChunk(); err == nil {
				t.Fatalf("%d rows, encoded execution %v: scan accepted the payload", rows, encodedExec)
			}
			src.Close()
		}
	}
}

// fuzzSegTypes are the column types a segment payload decodes to.
var fuzzSegTypes = []types.Type{types.BigInt, types.Integer, types.Double, types.Boolean, types.Varchar, types.Timestamp}

// FuzzSegmentPayload feeds arbitrary bytes, read as a segment payload of
// a fuzzed column type, through the header parser, the segment gather
// (every row and every other row) and the kernels. The outcome must be
// an error or values — never a panic, never more than SegRows rows — and
// a sub-selection must read what the whole decode read. A payload that
// is what the encoder writes for the decoded rows must select exactly
// what the filter selects over them.
func FuzzSegmentPayload(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i, typ := range fuzzSegTypes {
		n := 1 + rng.Intn(SegRows)
		f.Add(encodeSegColumn(fuzzVector(rng, typ, n), n), uint8(i))
	}
	f.Add(forgedBigInt(1<<40), uint8(0))
	f.Add(forgedBigInt(SegRows+1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, ti uint8) {
		typ := fuzzSegTypes[int(ti)%len(fuzzSegTypes)]
		_, n, _, _, herr := segEncHeader(data)
		if herr == nil && (n < 0 || n > SegRows) {
			t.Fatalf("header accepted %d rows", n)
		}
		whole := vector.New(typ, SegRows)
		wholeErr := gatherSeg(data, typ, nil, whole, nil)
		if wholeErr == nil && whole.Len() != n {
			t.Fatalf("whole decode read %d rows of %d", whole.Len(), n)
		}
		var sel []int
		for r := 0; r < n; r += 2 {
			sel = append(sel, r)
		}
		sub := vector.New(typ, SegRows)
		if err := gatherSeg(data, typ, sel, sub, make([]int64, SegRows)); err == nil && wholeErr == nil {
			if r, ok := sameRows(sub, whole, sel); !ok {
				t.Fatalf("sub-selection differs from the whole decode at row %d", r)
			}
		}

		canonical := wholeErr == nil && string(encodeSegColumn(whole, n)) == string(data)
		consts := map[types.Type]types.Value{
			types.BigInt: types.NewBigInt(int64(len(data))), types.Integer: types.NewDouble(2.5),
			types.Timestamp: types.NewBigInt(-1), types.Double: types.NewDouble(0.5),
			types.Boolean: types.NewBool(true), types.Varchar: types.NewVarchar("v1"),
		}
		for _, op := range []ZoneOp{ZoneEq, ZoneLt, ZoneGe, ZoneIsNull, ZoneNotNull} {
			zf := ZoneFilter{Op: op, Val: consts[typ], Exact: true}
			encRefutes(data, typ, zf)
			match := make([]bool, SegRows)
			for i := range match {
				match[i] = true
			}
			if !encSelect(data, typ, zf, match[:max(n, 0)]) || !canonical {
				continue
			}
			for i := 0; i < n; i++ {
				if want := refMatch(whole, i, zf); match[i] != want {
					t.Fatalf("%v %v row %d: kernel=%v, filter over the decoded rows=%v", typ, op, i, match[i], want)
				}
			}
		}
	})
}
