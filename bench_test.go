// Package repro_test holds the benchmark per table/figure of the paper
// (see the experiment index in docs/ARCHITECTURE.md). Each benchmark wraps the shared
// experiment implementation from internal/bench, which cmd/quack-bench
// also uses to print the paper-style tables at full scale:
//
//	go test -bench=. -benchmem
//	go run ./cmd/quack-bench -exp all
package repro_test

import (
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/quack"
)

// BenchmarkTable1FailureModel (E1) regenerates Table 1's 30-day failure
// probabilities with the calibrated two-population Monte-Carlo.
func BenchmarkTable1FailureModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table1(io.Discard, 500_000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Reactive (E2) replays Figure 1's reactive-compression
// timeline: the DBMS re-encodes its intermediate as app RAM ramps.
func BenchmarkFigure1Reactive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Figure1(io.Discard, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkANCodeOverhead (E3) measures AN-code hardening overhead; the
// paper cites 1.1x-1.6x (SIMD implementations).
func BenchmarkANCodeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.ANCode(io.Discard, 1_000_000, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Slowdown, "slowdown-x")
		b.ReportMetric(res.DetectionRate*100, "detect-%")
	}
}

// Transfer benchmarks (E4): exporting a result set through the two APIs.
func BenchmarkTransferValueAPI(b *testing.B) {
	benchTransfer(b, false)
}

func BenchmarkTransferChunkAPI(b *testing.B) {
	benchTransfer(b, true)
}

func benchTransfer(b *testing.B, chunks bool) {
	const rows = 1_000_000
	db, err := quack.Open(":memory:")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (a BIGINT, v DOUBLE)"); err != nil {
		b.Fatal(err)
	}
	app, _ := db.Appender("t")
	for i := 0; i < rows; i++ {
		app.AppendRow(int64(i), float64(i))
	}
	if err := app.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(rows * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rowsRes, err := db.Query("SELECT a, v FROM t")
		if err != nil {
			b.Fatal(err)
		}
		var sum int64
		if chunks {
			for {
				c := rowsRes.NextChunk()
				if c == nil {
					break
				}
				for _, v := range c.Cols[0].I64[:c.Len()] {
					sum += v
				}
			}
		} else {
			var a int64
			var v float64
			for rowsRes.Next() {
				if err := rowsRes.Scan(&a, &v); err != nil {
					b.Fatal(err)
				}
				sum += a
			}
		}
		if sum != int64(rows)*(rows-1)/2 {
			b.Fatalf("bad sum %d", sum)
		}
	}
}

// BenchmarkBulkUpdateInPlace / ...RewriteBaseline (E5): the paper's
// UPDATE t SET d = NULL WHERE d = -999 wrangling pattern.
func BenchmarkBulkUpdateInPlace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := quack.Open(":memory:")
		if err != nil {
			b.Fatal(err)
		}
		if err := bench.GenSalesTable(db, "t", 500_000, 0.3, 42); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := db.Exec("UPDATE t SET d = NULL WHERE d = -999"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}

func BenchmarkBulkUpdateRewriteBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := quack.Open(":memory:")
		if err != nil {
			b.Fatal(err)
		}
		if err := bench.GenSalesTable(db, "t", 500_000, 0.3, 42); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := db.Exec(`CREATE TABLE t2 AS SELECT id, region, qty, price,
			CASE WHEN d = -999 THEN NULL ELSE d END AS d FROM t`); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}

// Engine benchmarks (E6): vectorized versus tuple-at-a-time execution of
// the same filtered aggregation plan.
func BenchmarkVectorizedEngine(b *testing.B) {
	benchEngine(b, false)
}

func BenchmarkRowEngine(b *testing.B) {
	benchEngine(b, true)
}

const engineQuery = "SELECT region, count(*), sum(qty), avg(price), sum(price * CAST(qty AS DOUBLE)) FROM t WHERE qty > 10 AND price < 900.0 GROUP BY region"

func benchEngine(b *testing.B, rowEngine bool) {
	db, err := quack.Open(":memory:")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := bench.GenSalesTable(db, "t", 500_000, 0, 7); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rowEngine {
			rows, err := db.Internal().NewSession().ExecuteRowEngine(engineQuery)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("no groups")
			}
		} else {
			rows, err := db.Query(engineQuery)
			if err != nil {
				b.Fatal(err)
			}
			if rows.NumRows() == 0 {
				b.Fatal("no groups")
			}
		}
	}
}

// Join benchmarks (E7): hash vs out-of-core merge join.
func BenchmarkJoinHash(b *testing.B) {
	benchJoin(b, quack.JoinHash, 0)
}

func BenchmarkJoinMergeSpilling(b *testing.B) {
	benchJoin(b, quack.JoinMerge, 4<<20)
}

func BenchmarkJoinAutoUnderPressure(b *testing.B) {
	benchJoin(b, quack.JoinAuto, 4<<20)
}

func benchJoin(b *testing.B, strategy quack.JoinStrategy, limit int64) {
	db, err := quack.Open(":memory:", quack.WithMemoryLimit(limit))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const rows = 200_000
	if err := bench.GenKeyedTable(db, "build", rows, rows, 1); err != nil {
		b.Fatal(err)
	}
	if err := bench.GenKeyedTable(db, "probe", rows, rows, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		tx.SetJoinStrategy(strategy)
		res, err := tx.Query("SELECT count(*) FROM probe JOIN build ON probe.k = build.k")
		if err != nil {
			b.Fatal(err)
		}
		res.Next()
		var n int64
		res.Scan(&n)
		if n == 0 {
			b.Fatal("empty join")
		}
		tx.Rollback()
	}
}

// Checksum benchmarks (E8): cold scans with and without verify-on-read.
func BenchmarkChecksumVerifiedScan(b *testing.B) {
	benchChecksum(b, true)
}

func BenchmarkChecksumDisabledScan(b *testing.B) {
	benchChecksum(b, false)
}

func benchChecksum(b *testing.B, verify bool) {
	dir := b.TempDir()
	path := dir + "/bench.qdb"
	db, err := quack.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := bench.GenSalesTable(db, "t", 500_000, 0.1, 5); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := []quack.Option{}
		if !verify {
			opts = append(opts, quack.WithoutChecksumVerification())
		}
		db, err := quack.Open(path, opts...)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := db.Query("SELECT sum(qty), sum(price) FROM t")
		if err != nil {
			b.Fatal(err)
		}
		rows.Next()
		db.Close()
	}
}

// BenchmarkConcurrentOLAPETL (E9): dashboard throughput — readers and
// writers share one embedded database under MVCC.
func BenchmarkConcurrentOLAPETL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Dashboard(io.Discard, 100_000, 500*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if res.Inconsistent > 0 {
			b.Fatalf("%d inconsistent snapshots", res.Inconsistent)
		}
		b.ReportMetric(float64(res.Queries)*2, "queries/s")
		b.ReportMetric(float64(res.Updates)*2, "updates/s")
	}
}

// Parallel benchmarks (E10): the morsel-driven engine at fixed worker
// counts. sub-benchmark names carry the thread count so the BENCH
// trajectory records the scaling curve.
func BenchmarkParallelScan(b *testing.B) {
	benchParallel(b, "SELECT id, qty, price FROM t WHERE qty > 98 AND price < 10.0")
}

func BenchmarkParallelAgg(b *testing.B) {
	benchParallel(b, "SELECT region, count(*), sum(qty), avg(price), min(price), max(price) FROM t GROUP BY region")
}

func BenchmarkParallelSort(b *testing.B) {
	benchParallel(b, "SELECT id, qty, price FROM t ORDER BY qty DESC, price, id")
}

// BenchmarkWindow: partitioned window evaluation — per-worker sorted
// runs, merged partition stream, frames evaluated on the exchange pool.
func BenchmarkWindow(b *testing.B) {
	benchParallel(b, "SELECT id, row_number() OVER (PARTITION BY region ORDER BY qty DESC, id), sum(price) OVER (PARTITION BY region ORDER BY qty DESC, id) FROM t")
}

func benchParallel(b *testing.B, query string) {
	db, err := quack.Open(":memory:")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := bench.GenSalesTable(db, "t", 1_000_000, 0.0, 11); err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			if _, err := db.Exec(fmt.Sprintf("PRAGMA threads=%d", threads)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := db.Query(query)
				if err != nil {
					b.Fatal(err)
				}
				for rows.NextChunk() != nil {
				}
			}
		})
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
