package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/quack"
)

// ScalingPoint is one row of the E10 morsel-parallelism sweep. The JSON
// shape is the CI bench-trajectory artifact: durations in nanoseconds,
// speedups relative to the sweep's 1-thread baseline.
type ScalingPoint struct {
	Threads          int           `json:"threads"`
	ScanDur          time.Duration `json:"scan_ns"`
	AggDur           time.Duration `json:"agg_ns"`
	SortDur          time.Duration `json:"sort_ns"`
	WindowDur        time.Duration `json:"window_ns"`
	AggBudgetDur     time.Duration `json:"agg_budget_ns"` // grouped agg under memory_limit (spilling)
	ScanSpeedup      float64       `json:"scan_speedup"`  // vs the 1-thread baseline
	AggSpeedup       float64       `json:"agg_speedup"`
	SortSpeedup      float64       `json:"sort_speedup"`
	WindowSpeedup    float64       `json:"window_speedup"`
	AggBudgetSpeedup float64       `json:"agg_budget_speedup"`
}

// scalingScanQuery is scan-and-filter bound with a tiny result: it
// measures the parallel pipeline itself, not result materialization.
const scalingScanQuery = "SELECT id, qty, price FROM t WHERE qty > 98 AND price < 10.0"

// scalingAggQuery is the paper-style grouped aggregation the morsel
// design targets: worker-local hash tables merged at the breaker.
const scalingAggQuery = "SELECT region, count(*), sum(qty), avg(price), min(price), max(price) FROM t GROUP BY region"

// scalingSortQuery is the parallel ORDER BY workload: per-worker sorted
// runs k-way merged at the breaker. The tie-heavy leading key makes the
// hidden (morsel, row) tiebreak carry the determinism guarantee; the
// full result is drained so the serial merge phase stays on the clock.
const scalingSortQuery = "SELECT id, qty, price FROM t ORDER BY qty DESC, price, id"

// scalingWindowQuery is the partitioned analytics workload: per-worker
// sorted runs feed the merge ranges, which cut and evaluate the
// partitions — ranking and a running sum per region.
const scalingWindowQuery = "SELECT id, row_number() OVER (PARTITION BY region ORDER BY qty DESC, id), sum(price) OVER (PARTITION BY region ORDER BY qty DESC, id) FROM t"

// scalingAggBudgetQuery is the budgeted-aggregation workload: a
// high-cardinality GROUP BY (rows/8 groups, arriving a morsel-block at
// a time) run under a memory_limit far below its aggregate state, so
// the partition-wise spilling path — radix spill, state runs, the
// partition merge finish — is what the sweep times. The sweep verifies
// its results identical across thread counts like every workload.
const scalingAggBudgetQuery = "SELECT id - id % 8, count(*), sum(qty), sum(price), min(price) FROM t GROUP BY 1"

// Scaling (E10) measures the morsel-driven engine's speedup over the
// single-threaded baseline on one dataset: a filtered scan pipeline and
// a grouped aggregation, each at every requested worker count. Results
// are checked to be row-for-row identical across thread counts — the
// engine's determinism guarantee — before any timing is reported.
func Scaling(w io.Writer, rows int, threadCounts []int) ([]ScalingPoint, error) {
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8}
	}
	db, err := quack.Open(":memory:", quack.WithThreads(1))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := GenSalesTable(db, "t", rows, 0.0, 11); err != nil {
		return nil, err
	}

	render := func(q string) (string, error) {
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
	// Best-of-3 timing; the first run warms the morsel scan path.
	timeQuery := func(q string) (time.Duration, error) {
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
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

	setThreads := func(n int) error {
		_, err := db.Exec(fmt.Sprintf("PRAGMA threads=%d", n))
		return err
	}
	// The budgeted workload's memory_limit scales with the data so the
	// reduced CI sweep spills just like the full-size run: ~a quarter of
	// the aggregate state fits, the rest cycles through state runs.
	aggBudget := int64(rows) * 8
	if aggBudget < 1<<20 {
		aggBudget = 1 << 20
	}
	setLimit := func(limit int64) error {
		_, err := db.Exec(fmt.Sprintf("PRAGMA memory_limit=%d", limit))
		return err
	}

	var wantScan, wantAgg, wantSort, wantWindow, wantAggBudget string
	var out []ScalingPoint
	for _, threads := range threadCounts {
		if err := setThreads(threads); err != nil {
			return nil, err
		}
		gotScan, err := render(scalingScanQuery)
		if err != nil {
			return nil, err
		}
		gotAgg, err := render(scalingAggQuery)
		if err != nil {
			return nil, err
		}
		gotSort, err := render(scalingSortQuery)
		if err != nil {
			return nil, err
		}
		gotWindow, err := render(scalingWindowQuery)
		if err != nil {
			return nil, err
		}
		if err := setLimit(aggBudget); err != nil {
			return nil, err
		}
		gotAggBudget, err := render(scalingAggBudgetQuery)
		if err != nil {
			return nil, err
		}
		aggBudgetDur, err := timeQuery(scalingAggBudgetQuery)
		if err != nil {
			return nil, err
		}
		if err := setLimit(-1); err != nil {
			return nil, err
		}
		if threads == threadCounts[0] {
			wantScan, wantAgg, wantSort, wantWindow, wantAggBudget = gotScan, gotAgg, gotSort, gotWindow, gotAggBudget
			// The budgeted run must also match the unbudgeted aggregation
			// of the same query — spilling must not change results.
			unlimited, err := render(scalingAggBudgetQuery)
			if err != nil {
				return nil, err
			}
			if unlimited != gotAggBudget {
				return nil, fmt.Errorf("budgeted aggregation diverges from the unbudgeted run")
			}
		} else if gotScan != wantScan || gotAgg != wantAgg || gotSort != wantSort || gotWindow != wantWindow || gotAggBudget != wantAggBudget {
			return nil, fmt.Errorf("results diverge at %d threads", threads)
		}
		scanDur, err := timeQuery(scalingScanQuery)
		if err != nil {
			return nil, err
		}
		aggDur, err := timeQuery(scalingAggQuery)
		if err != nil {
			return nil, err
		}
		sortDur, err := timeQuery(scalingSortQuery)
		if err != nil {
			return nil, err
		}
		windowDur, err := timeQuery(scalingWindowQuery)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalingPoint{
			Threads: threads, ScanDur: scanDur, AggDur: aggDur,
			SortDur: sortDur, WindowDur: windowDur, AggBudgetDur: aggBudgetDur,
		})
	}
	base := out[0]
	for i := range out {
		out[i].ScanSpeedup = float64(base.ScanDur) / float64(out[i].ScanDur)
		out[i].AggSpeedup = float64(base.AggDur) / float64(out[i].AggDur)
		out[i].SortSpeedup = float64(base.SortDur) / float64(out[i].SortDur)
		out[i].WindowSpeedup = float64(base.WindowDur) / float64(out[i].WindowDur)
		out[i].AggBudgetSpeedup = float64(base.AggBudgetDur) / float64(out[i].AggBudgetDur)
	}

	if w != nil {
		fmt.Fprintf(w, "E10 morsel-driven parallelism (%d rows; results verified identical across thread counts; budgeted agg spills under a %d-byte memory_limit)\n", rows, aggBudget)
		fmt.Fprintf(w, "%-8s %-14s %-9s %-14s %-9s %-14s %-9s %-14s %-9s %-14s %s\n", "threads", "scan+filter", "speedup", "group-by agg", "speedup", "order-by", "speedup", "window", "speedup", "budgeted agg", "speedup")
		for _, p := range out {
			fmt.Fprintf(w, "%-8d %-14v %-9s %-14v %-9s %-14v %-9s %-14v %-9s %-14v %.2fx\n",
				p.Threads, p.ScanDur.Round(time.Microsecond), fmt.Sprintf("%.2fx", p.ScanSpeedup),
				p.AggDur.Round(time.Microsecond), fmt.Sprintf("%.2fx", p.AggSpeedup),
				p.SortDur.Round(time.Microsecond), fmt.Sprintf("%.2fx", p.SortSpeedup),
				p.WindowDur.Round(time.Microsecond), fmt.Sprintf("%.2fx", p.WindowSpeedup),
				p.AggBudgetDur.Round(time.Microsecond), p.AggBudgetSpeedup)
		}
	}
	return out, nil
}
