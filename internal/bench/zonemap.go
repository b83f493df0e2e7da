package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/quack"
)

// SelectivityPoint is one row of the zone-map selective-filter sweep:
// the same clustered-range query timed with segment skipping on and off
// at one selectivity, plus the cold-file encoded-execution legs (filter
// kernels over the compressed segments vs. full decode). The JSON shape
// rides in the CI bench artifact next to the scaling points.
type SelectivityPoint struct {
	Label           string        `json:"label"`
	Selectivity     float64       `json:"selectivity"`
	ZoneOnDur       time.Duration `json:"zone_on_ns"`
	ZoneOffDur      time.Duration `json:"zone_off_ns"`
	Improvement     float64       `json:"improvement"` // zone_off / zone_on
	SegmentsSkipped int64         `json:"segments_skipped"`
	SegmentsScanned int64         `json:"segments_scanned"`

	// Encoded-execution legs, measured against a checkpointed file
	// reopened cold so the segments are actually compressed. EncOnDur
	// runs the selection kernels over the encoded payloads with late
	// materialization; EncOffDur decodes the surviving segments fully.
	EncOnDur        time.Duration `json:"enc_on_ns,omitempty"`
	EncOffDur       time.Duration `json:"enc_off_ns,omitempty"`
	EncImprovement  float64       `json:"enc_improvement,omitempty"` // enc_off / enc_on
	SegmentsEncoded int64         `json:"segments_encoded,omitempty"`
}

// zoneMapSelectivities are the swept filter selectivities: the paper's
// dashboard-style point lookups (0.1%), a narrow analytical range (1%),
// and a half-table scan where zone maps can refute almost nothing and
// must not cost anything.
var zoneMapSelectivities = []struct {
	label string
	frac  float64
}{
	{"0.1pct", 0.001},
	{"1pct", 0.01},
	{"50pct", 0.5},
}

// render drains a query into a comparable string.
func render(db *quack.DB, q string) (string, error) {
	res, err := db.Query(q)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	for {
		c := res.NextChunk()
		if c == nil {
			return out.String(), nil
		}
		for r := 0; r < c.Len(); r++ {
			fmt.Fprintln(&out, c.Row(r))
		}
	}
}

// timeQuery reports the best-of-5 wall time of draining q.
func timeQuery(db *quack.DB, q string) (time.Duration, error) {
	best := time.Duration(0)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		res, err := db.Query(q)
		if err != nil {
			return 0, err
		}
		for res.NextChunk() != nil {
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// selQuery centers the clustered range so both tails are refutable.
func selQuery(rows int, frac float64) string {
	n := int64(float64(rows) * frac)
	if n < 1 {
		n = 1
	}
	lo := (int64(rows) - n) / 2
	return fmt.Sprintf("SELECT count(*), sum(qty), sum(price) FROM t WHERE id >= %d AND id < %d", lo, lo+n)
}

// encQuery is the encoded-execution sweep's predicate: d is uniform in
// [0, 10000) with no append-order clustering, so zone maps refute
// nothing and every segment survives to the scan. The selective work —
// comparing the bit-packed frame-of-reference payload against the
// rewritten constant and materializing only the matches — is then done
// entirely by the kernels, which is the case the sweep is measuring
// (the clustered queries above already collapse under segment skipping
// before the kernels could matter).
func encQuery(frac float64) string {
	hi := int64(10_000 * frac)
	if hi < 10 {
		hi = 10
	}
	return fmt.Sprintf("SELECT count(*), sum(qty), sum(price) FROM t WHERE d < %d", hi)
}

// ZoneMapFilter measures zone-map segment skipping on clustered-range
// predicates over the append-ordered sales table: each selectivity's
// aggregate query is timed best-of-5 with skipping enabled and disabled,
// results are verified identical both ways, and the skip counters report
// how many segments the pushed predicate refuted. A second sweep over a
// checkpointed file reopened cold then times the same queries with
// encoded execution on (selection kernels over the compressed segments,
// only surviving rows materialized) and off (surviving segments decoded
// in full), again verifying identical results.
func ZoneMapFilter(w io.Writer, rows, threads int) ([]SelectivityPoint, error) {
	db, err := quack.Open(":memory:", quack.WithThreads(threads))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := GenSalesTable(db, "t", rows, 0.0, 17); err != nil {
		return nil, err
	}

	var out []SelectivityPoint
	for _, sel := range zoneMapSelectivities {
		q := selQuery(rows, sel.frac)

		db.Internal().SetZoneMaps(true)
		wantOn, err := render(db, q)
		if err != nil {
			return nil, err
		}
		before := db.Metrics()
		if _, err := render(db, q); err != nil { // one counted pass
			return nil, err
		}
		after := db.Metrics()
		onDur, err := timeQuery(db, q)
		if err != nil {
			return nil, err
		}

		db.Internal().SetZoneMaps(false)
		wantOff, err := render(db, q)
		if err != nil {
			return nil, err
		}
		if wantOff != wantOn {
			return nil, fmt.Errorf("zone-map skipping changes %s results", sel.label)
		}
		offDur, err := timeQuery(db, q)
		if err != nil {
			return nil, err
		}
		db.Internal().SetZoneMaps(true)

		out = append(out, SelectivityPoint{
			Label:           sel.label,
			Selectivity:     sel.frac,
			ZoneOnDur:       onDur,
			ZoneOffDur:      offDur,
			Improvement:     float64(offDur) / float64(onDur),
			SegmentsSkipped: after["scan_segments_skipped_total"] - before["scan_segments_skipped_total"],
			SegmentsScanned: after["scan_segments_scanned_total"] - before["scan_segments_scanned_total"],
		})
	}

	if err := encodedFilterSweep(out, rows, threads); err != nil {
		return nil, err
	}

	if w != nil {
		fmt.Fprintf(w, "zone-map selective filters (%d rows, %d threads; results verified identical with skipping on and off)\n", rows, threads)
		fmt.Fprintf(w, "%-12s %-14s %-14s %-12s %s\n", "selectivity", "zone maps on", "zone maps off", "improvement", "segments skipped/touched")
		for _, p := range out {
			fmt.Fprintf(w, "%-12s %-14v %-14v %-12s %d/%d\n",
				p.Label, p.ZoneOnDur.Round(time.Microsecond), p.ZoneOffDur.Round(time.Microsecond),
				fmt.Sprintf("%.2fx", p.Improvement), p.SegmentsSkipped, p.SegmentsSkipped+p.SegmentsScanned)
		}
		fmt.Fprintf(w, "encoded execution, cold file (results verified identical with kernels on and off)\n")
		fmt.Fprintf(w, "%-12s %-14s %-14s %-12s %s\n", "selectivity", "encoded on", "encoded off", "improvement", "segments encoded")
		for _, p := range out {
			fmt.Fprintf(w, "%-12s %-14v %-14v %-12s %d\n",
				p.Label, p.EncOnDur.Round(time.Microsecond), p.EncOffDur.Round(time.Microsecond),
				fmt.Sprintf("%.2fx", p.EncImprovement), p.SegmentsEncoded)
		}
	}
	return out, nil
}

// encodedFilterSweep fills the encoded-execution legs of the sweep. The
// sales table is checkpointed into a file once; every selectivity then
// reopens it cold and measures the encoded path FIRST — a decoded scan
// installs materialized columns (a column is encoded or decoded, never
// both), so the order is what keeps the segments compressed for the
// kernel leg. The off-leg afterwards decodes the survivors and re-times
// the same query over materialized columns.
func encodedFilterSweep(points []SelectivityPoint, rows, threads int) error {
	dir, err := os.MkdirTemp("", "quack-bench-enc-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	path := filepath.Join(dir, "sales.qdb")

	fdb, err := quack.Open(path, quack.WithThreads(threads))
	if err != nil {
		return err
	}
	if err := GenSalesTable(fdb, "t", rows, 0.0, 17); err != nil {
		fdb.Close()
		return err
	}
	if err := fdb.Close(); err != nil { // checkpoint compresses the segments
		return err
	}

	for i := range points {
		q := encQuery(points[i].Selectivity)
		db, err := quack.Open(path, quack.WithThreads(threads))
		if err != nil {
			return err
		}
		db.Internal().SetZoneMaps(true)
		db.Internal().SetEncodedExec(true)
		// First pass loads the column chains (and is the counted pass);
		// the timed passes then run over resident compressed payloads.
		wantOn, err := render(db, q)
		if err != nil {
			db.Close()
			return err
		}
		encoded := db.Metrics()["scan_segments_encoded_total"]
		encOn, err := timeQuery(db, q)
		if err != nil {
			db.Close()
			return err
		}

		db.Internal().SetEncodedExec(false)
		wantOff, err := render(db, q) // decodes and installs the survivors
		if err != nil {
			db.Close()
			return err
		}
		if wantOff != wantOn {
			db.Close()
			return fmt.Errorf("encoded execution changes %s results", points[i].Label)
		}
		encOff, err := timeQuery(db, q)
		if err != nil {
			db.Close()
			return err
		}
		db.Close()

		points[i].EncOnDur = encOn
		points[i].EncOffDur = encOff
		points[i].EncImprovement = float64(encOff) / float64(encOn)
		points[i].SegmentsEncoded = encoded
	}
	return nil
}
