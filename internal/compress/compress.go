// Package compress implements the lightweight and heavy compression
// schemes the engine trades CPU for RAM with (paper §4, Figure 1):
//
//   - Light: run-length encoding and frame-of-reference bit-packing for
//     integers, dictionary encoding for strings — cheap to (de)compress,
//     moderate ratios; used first when the application needs memory.
//   - Heavy: DEFLATE — much better ratios at a real CPU cost; used when
//     memory pressure keeps rising.
//
// The same encodings serve persistent column segments and compressed
// in-memory intermediates (hash tables, sort runs).
package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// Level selects how aggressively to trade CPU for memory.
type Level int

// Compression levels, in increasing CPU cost / decreasing footprint.
const (
	None Level = iota
	Light
	Heavy
)

// String names the level as the adaptive policy logs it.
func (l Level) String() string {
	switch l {
	case None:
		return "none"
	case Light:
		return "light"
	case Heavy:
		return "heavy"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Scheme tags stored in the first byte of every compressed buffer.
const (
	schemeRaw byte = iota
	schemeRLE
	schemeFOR
	schemeFlate
	// schemeFlateLight is DEFLATE applied on top of a light-encoded
	// buffer: entropy coding over the bit-packed/RLE form, so "heavy" is
	// never worse than "light".
	schemeFlateLight
)

// CompressInt64 compresses src at the given level. For Light it picks
// the smaller of RLE and frame-of-reference bit-packing; None stores raw
// little-endian words (still framed, so Decompress is uniform).
func CompressInt64(src []int64, level Level) []byte {
	switch level {
	case None:
		return rawEncode(src)
	case Light:
		rle := rleEncode(src)
		forp := forEncode(src)
		if len(rle) <= len(forp) {
			return rle
		}
		return forp
	case Heavy:
		light := CompressInt64(src, Light)
		candidates := [][]byte{light, flateEncode(src), flateWrap(light)}
		best := candidates[0]
		for _, c := range candidates[1:] {
			if len(c) < len(best) {
				best = c
			}
		}
		return best
	default:
		return rawEncode(src)
	}
}

// flateWrap entropy-codes an already-encoded buffer.
func flateWrap(encoded []byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte(schemeFlateLight)
	w, _ := flate.NewWriter(&buf, flate.DefaultCompression)
	w.Write(encoded) //nolint:errcheck // bytes.Buffer cannot fail
	w.Close()
	return buf.Bytes()
}

// DecompressInt64 reverses CompressInt64 regardless of scheme. The light
// schemes decode as a gather over every row (kernels.go).
func DecompressInt64(data []byte) ([]int64, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("compress: empty buffer")
	}
	switch data[0] {
	case schemeFlate:
		return flateDecode(data[1:])
	case schemeFlateLight:
		r := flate.NewReader(bytes.NewReader(data[1:]))
		defer r.Close()
		inner, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("compress: flate-light: %w", err)
		}
		return DecompressInt64(inner)
	}
	scheme, n, body, err := lightHeader(data)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	if err := gather(scheme, n, body, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

func rawEncode(src []int64) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+8*len(src))
	out = append(out, schemeRaw)
	out = binary.AppendUvarint(out, uint64(len(src)))
	for _, v := range src {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

func rleEncode(src []int64) []byte {
	out := make([]byte, 0, 64)
	out = append(out, schemeRLE)
	out = binary.AppendUvarint(out, uint64(len(src)))
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j] == src[i] {
			j++
		}
		out = binary.AppendUvarint(out, uint64(j-i))
		out = binary.AppendVarint(out, src[i])
		i = j
	}
	return out
}

// forEncode frame-of-reference bit-packs: values are stored as
// fixed-width offsets from the minimum.
func forEncode(src []int64) []byte {
	out := make([]byte, 0, 64)
	out = append(out, schemeFOR)
	out = binary.AppendUvarint(out, uint64(len(src)))
	if len(src) == 0 {
		return out
	}
	minV := src[0]
	maxV := src[0]
	for _, v := range src[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	span := uint64(maxV - minV) // safe: callers' domains fit; wraps only on full-range data
	width := bits.Len64(span)   // bits per value; 0 means constant column
	out = binary.AppendVarint(out, minV)
	out = append(out, byte(width))
	if width == 0 {
		return out
	}
	packed := make([]byte, (len(src)*width+7)/8)
	bitPos := 0
	for _, v := range src {
		delta := uint64(v - minV)
		for b := 0; b < width; b++ {
			if delta&(1<<uint(b)) != 0 {
				packed[bitPos>>3] |= 1 << uint(bitPos&7)
			}
			bitPos++
		}
	}
	return append(out, packed...)
}

func flateEncode(src []int64) []byte {
	raw := make([]byte, 8*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
	}
	var buf bytes.Buffer
	buf.WriteByte(schemeFlate)
	var hdr [binary.MaxVarintLen64]byte
	buf.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(src)))])
	// Default compression: BestCompression costs ~10x the CPU for a few
	// percent on binary column data — a bad trade even for "heavy".
	w, _ := flate.NewWriter(&buf, flate.DefaultCompression)
	w.Write(raw) //nolint:errcheck // bytes.Buffer cannot fail
	w.Close()
	return buf.Bytes()
}

func flateDecode(data []byte) ([]int64, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("compress: bad flate header")
	}
	r := flate.NewReader(bytes.NewReader(data[k:]))
	defer r.Close()
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("compress: flate: %w", err)
	}
	if uint64(len(raw)) != 8*n {
		return nil, fmt.Errorf("compress: flate payload has %d bytes, want %d", len(raw), 8*n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}

// CompressBytes compresses an opaque byte buffer. None returns a framed
// copy; Light and Heavy use DEFLATE at speed-optimized and
// ratio-optimized settings respectively.
func CompressBytes(src []byte, level Level) []byte {
	switch level {
	case None:
		out := make([]byte, 1+len(src))
		out[0] = schemeRaw
		copy(out[1:], src)
		return out
	default:
		fl := flate.BestSpeed
		if level == Heavy {
			fl = flate.DefaultCompression
		}
		var buf bytes.Buffer
		buf.WriteByte(schemeFlate)
		w, _ := flate.NewWriter(&buf, fl)
		w.Write(src) //nolint:errcheck // bytes.Buffer cannot fail
		w.Close()
		return buf.Bytes()
	}
}

// DecompressBytes reverses CompressBytes.
func DecompressBytes(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("compress: empty buffer")
	}
	switch data[0] {
	case schemeRaw:
		out := make([]byte, len(data)-1)
		copy(out, data[1:])
		return out, nil
	case schemeFlate:
		r := flate.NewReader(bytes.NewReader(data[1:]))
		defer r.Close()
		return io.ReadAll(r)
	default:
		return nil, fmt.Errorf("compress: unknown scheme tag %d", data[0])
	}
}

// StringDict dictionary-encodes a string column: the unique values plus
// a FOR-packed index vector. It is the light scheme for VARCHAR segments.
type StringDict struct {
	Values  []string
	Indexes []int64
}

// EncodeStrings dictionary-encodes src.
func EncodeStrings(src []string) StringDict {
	dict := make(map[string]int64)
	var d StringDict
	d.Indexes = make([]int64, len(src))
	for i, s := range src {
		idx, ok := dict[s]
		if !ok {
			idx = int64(len(d.Values))
			dict[s] = idx
			d.Values = append(d.Values, s)
		}
		d.Indexes[i] = idx
	}
	return d
}

// Decode reconstructs the original string slice.
func (d StringDict) Decode() []string {
	out := make([]string, len(d.Indexes))
	for i, idx := range d.Indexes {
		out[i] = d.Values[idx]
	}
	return out
}
