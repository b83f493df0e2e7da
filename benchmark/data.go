package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"repro/internal/vector"
	"repro/quack"
)

// regions are the eight values of t.region.
var regions = []string{"north", "south", "east", "west", "emea", "apac", "latam", "anz"}

const (
	dimKeys    = 10_000 // u.k covers 0..dimKeys-1, the domain of t.d
	missingD   = -999   // the encoded missing value of t.d (2% of rows)
	chunkRows  = 1024   // one engine chunk; also one table segment
	factSchema = "(id BIGINT, region VARCHAR, qty BIGINT, price DOUBLE, d BIGINT)"
)

// totals is what the generator keeps of a fact stream: nothing per row,
// only the sums an independent check of the engine's answers needs.
type totals struct {
	Rows        int64    `json:"rows"`
	RegionCount [8]int64 `json:"region_count"`
	RegionQty   [8]int64 `json:"region_qty"`
	// The rows the etl wrangle block keeps (id%10 != 3), and how many of
	// those carry a real measurement (d != -999).
	Kept        int64 `json:"kept"`
	KeptMeasure int64 `json:"kept_measure"`
}

// factStream produces the fact table for one seed, a chunk at a time.
// The same seed and row count always give the same rows.
type factStream struct {
	rng  *rand.Rand
	next int64
	rows int64
	tot  totals
}

func newFactStream(seed int64, rows int) *factStream {
	return &factStream{rng: rand.New(rand.NewSource(seed)), rows: int64(rows)}
}

// fill writes the next rows into c (already typed to factSchema) and
// returns how many it wrote; 0 means the stream is done.
func (f *factStream) fill(c *quack.Chunk) int {
	n := int(min(f.rows-f.next, chunkRows))
	c.SetLen(n)
	for r := 0; r < n; r++ {
		id := f.next + int64(r)
		reg := f.rng.Intn(len(regions))
		qty := f.rng.Int63n(100) + 1
		price := f.rng.Float64() * 1000
		d := f.rng.Int63n(dimKeys)
		if f.rng.Intn(50) == 0 {
			d = missingD
		}
		c.Cols[0].I64[r] = id
		c.Cols[1].Str[r] = regions[reg]
		c.Cols[2].I64[r] = qty
		c.Cols[3].F64[r] = price
		c.Cols[4].I64[r] = d

		f.tot.Rows++
		f.tot.RegionCount[reg]++
		f.tot.RegionQty[reg] += qty
		if id%10 != 3 {
			f.tot.Kept++
			if d != missingD {
				f.tot.KeptMeasure++
			}
		}
	}
	f.next += int64(n)
	return n
}

var factTypes = []quack.Type{quack.BigInt, quack.Varchar, quack.BigInt, quack.Double, quack.BigInt}

func newFactChunk() *quack.Chunk { return vector.NewChunk(factTypes) }

// loadFact creates t and u in db from the seed. Rows go through the
// Appender a chunk at a time and are not retained here.
func loadFact(db *quack.DB, seed int64, rows int) (totals, error) {
	if _, err := db.Exec("CREATE TABLE t " + factSchema); err != nil {
		return totals{}, err
	}
	app, err := db.Appender("t")
	if err != nil {
		return totals{}, err
	}
	fs := newFactStream(seed, rows)
	for {
		c := app.NewChunk()
		if fs.fill(c) == 0 {
			break
		}
		if err := app.AppendChunk(c); err != nil {
			app.Abort()
			return totals{}, err
		}
	}
	if err := app.Close(); err != nil {
		return totals{}, err
	}

	if _, err := db.Exec("CREATE TABLE u (k BIGINT, v BIGINT)"); err != nil {
		return totals{}, err
	}
	app, err = db.Appender("u")
	if err != nil {
		return totals{}, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, k := range rng.Perm(dimKeys) {
		if err := app.AppendRow(int64(k), rng.Int63n(1_000_000)); err != nil {
			app.Abort()
			return totals{}, err
		}
	}
	return fs.tot, app.Close()
}

// writeCSV writes the etl input: the fact schema from another stream of
// the same seed, formatted here and not by the engine's CSV writer, so
// that the file does not depend on the code that will read it.
func writeCSV(path string, seed int64, rows int) (totals, error) {
	f, err := os.Create(path)
	if err != nil {
		return totals{}, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fs := newFactStream(seed^0xc5f, rows)
	c := newFactChunk()
	var buf []byte
	for fs.fill(c) > 0 {
		for r := 0; r < c.Len(); r++ {
			buf = buf[:0]
			buf = strconv.AppendInt(buf, c.Cols[0].I64[r], 10)
			buf = append(buf, ',')
			buf = append(buf, c.Cols[1].Str[r]...)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, c.Cols[2].I64[r], 10)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, c.Cols[3].F64[r], 'g', -1, 64)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, c.Cols[4].I64[r], 10)
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				_ = f.Close()
				return totals{}, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return totals{}, err
	}
	if err := f.Close(); err != nil {
		return totals{}, fmt.Errorf("close %s: %w", path, err)
	}
	return fs.tot, nil
}
