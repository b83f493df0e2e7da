package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/quack"
)

// ServePoint is one row of the serve-mode sweep: N concurrent sessions
// sharing one database, each running the mixed workload through its own
// connection against the engine-wide scheduler and admission gate.
// Durations are nanoseconds in JSON, like the scaling artifact.
type ServePoint struct {
	Sessions int           `json:"sessions"`
	Queries  int           `json:"queries"` // total completed across sessions
	QPS      float64       `json:"qps"`
	P50      time.Duration `json:"p50_ns"`
	P99      time.Duration `json:"p99_ns"`
}

// serveQueries is the mixed per-session workload: a selective
// scan+filter, a grouped aggregation, and a filtered aggregate — small
// result sets so the sweep times the engine, not client rendering, and
// every session's results can be checked against the sequential answer.
var serveQueries = []string{
	"SELECT count(*), sum(qty) FROM t WHERE qty > 98 AND price < 5.0",
	"SELECT region, count(*), sum(qty), avg(price), min(price) FROM t GROUP BY region",
	"SELECT min(price), max(price), sum(qty) FROM t WHERE region = 'emea' AND qty > 50",
	"SELECT count(*) FROM t WHERE price > 99.0",
}

// serveItersPerSession is how many queries each session issues. Fixed
// per session (not per sweep) so per-query latency percentiles stay
// comparable across session counts while total load scales with N.
const serveItersPerSession = 24

// Serve measures multi-session throughput: for each session count it
// opens that many connections on one shared database and has each run
// the mixed workload concurrently, reporting aggregate QPS plus p50/p99
// per-query latency. Every result is verified byte-identical to the
// answers computed before the sweep — concurrency must not change
// results — so a divergence fails the benchmark rather than skewing it.
// The second return is the engine's metrics-registry snapshot taken
// after the sweep (scheduler, admission, scan and pool counters), so
// the JSON artifact records how the engine behaved, not just how fast.
func Serve(w io.Writer, rows int, threads int, sessionCounts []int) ([]ServePoint, map[string]int64, error) {
	if len(sessionCounts) == 0 {
		sessionCounts = []int{1, 4, 16}
	}
	db, err := quack.Open(":memory:", quack.WithThreads(threads))
	if err != nil {
		return nil, nil, err
	}
	defer db.Close()
	if err := GenSalesTable(db, "t", rows, 0.0, 13); err != nil {
		return nil, nil, err
	}

	render := func(c *quack.Conn, q string) (string, error) {
		res, err := c.Query(q)
		if err != nil {
			return "", err
		}
		var out strings.Builder
		for {
			chunk := res.NextChunk()
			if chunk == nil {
				return out.String(), nil
			}
			for r := 0; r < chunk.Len(); r++ {
				fmt.Fprintln(&out, chunk.Row(r))
			}
		}
	}
	want := make([]string, len(serveQueries))
	warm := db.Conn()
	for i, q := range serveQueries {
		if want[i], err = render(warm, q); err != nil {
			return nil, nil, err
		}
	}

	var out []ServePoint
	for _, sessions := range sessionCounts {
		latencies := make([][]time.Duration, sessions)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		start := time.Now()
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				conn := db.Conn()
				for k := 0; k < serveItersPerSession; k++ {
					i := (s + k) % len(serveQueries)
					qStart := time.Now()
					got, err := render(conn, serveQueries[i])
					if err != nil {
						errs[s] = err
						return
					}
					latencies[s] = append(latencies[s], time.Since(qStart))
					if got != want[i] {
						errs[s] = fmt.Errorf("session %d: %q diverged from the sequential answer", s, serveQueries[i])
						return
					}
				}
			}(s)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		var all []time.Duration
		for _, l := range latencies {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(p float64) time.Duration {
			i := int(p * float64(len(all)-1))
			return all[i]
		}
		out = append(out, ServePoint{
			Sessions: sessions,
			Queries:  len(all),
			QPS:      float64(len(all)) / wall.Seconds(),
			P50:      pct(0.50),
			P99:      pct(0.99),
		})
	}

	metrics := db.Metrics()
	if w != nil {
		fmt.Fprintf(w, "serve: %d sessions-axis sweep (%d rows, %d pool workers, %d queries/session; results verified identical to sequential)\n",
			len(sessionCounts), rows, threads, serveItersPerSession)
		fmt.Fprintf(w, "%-10s %-9s %-10s %-12s %s\n", "sessions", "queries", "qps", "p50", "p99")
		for _, p := range out {
			fmt.Fprintf(w, "%-10d %-9d %-10.1f %-12v %v\n",
				p.Sessions, p.Queries, p.QPS, p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond))
		}
		fmt.Fprintf(w, "engine: %d sched steps (wait p99 %v), %d admitted, %d segments scanned, %d skipped\n",
			metrics["sched_steps_total"],
			time.Duration(metrics["sched_step_wait_p99_ns"]).Round(time.Microsecond),
			metrics["admission_admitted_total"],
			metrics["scan_segments_scanned_total"],
			metrics["scan_segments_skipped_total"])
	}
	return out, metrics, nil
}
