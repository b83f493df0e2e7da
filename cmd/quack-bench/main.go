// quack-bench regenerates every table and figure of the paper's
// evaluation (see the experiment index in docs/ARCHITECTURE.md): it runs
// the experiment implementations from internal/bench at paper scale and
// prints the same rows/series the paper reports.
//
// Usage:
//
//	quack-bench -exp table1|figure1|ancode|transfer|bulkupdate|engine|joins|checksum|dashboard|scaling|serve|all
//	quack-bench -exp all -scale 0.1   # quicker, smaller datasets
//	quack-bench -exp scaling -threads 16   # sweep 1,2,4,8,16 workers
//	quack-bench -exp scaling -json scaling.json   # CI bench artifact
//	quack-bench -exp serve -sessions 16   # multi-session sweep 1,4,16
//
// -json merges into the target file section by section (the scaling
// sweep owns points/selective_filter, the serve sweep owns serve), so
// sequential invocations build one artifact. The sweeps are reports:
// performance is gated by BENCHMARK.json (benchmark/), nothing here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1, figure1, ancode, transfer, bulkupdate, engine, joins, checksum, dashboard, scaling, serve, all)")
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	threads := flag.Int("threads", 8, "maximum worker count for the scaling sweep (powers of two up to this)")
	sessions := flag.Int("sessions", 16, "maximum session count for the serve sweep (1, 4, ... up to this)")
	jsonPath := flag.String("json", "", "merge this run's sweep sections as JSON into this path (CI bench trajectory)")
	flag.Parse()

	if err := run(*exp, bench.Scale(*scale), *threads, *sessions, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "quack-bench:", err)
		os.Exit(1)
	}
}

// threadSweep lists the worker counts to sweep: 1, 2, 4, ... up to and
// including maxThreads.
func threadSweep(maxThreads int) []int {
	if maxThreads < 1 {
		maxThreads = 1
	}
	var out []int
	for n := 1; n < maxThreads; n *= 2 {
		out = append(out, n)
	}
	return append(out, maxThreads)
}

// sessionSweep lists the serve-mode session counts: 1, 4, 16, ... up to
// and including maxSessions.
func sessionSweep(maxSessions int) []int {
	if maxSessions < 1 {
		maxSessions = 1
	}
	var out []int
	for n := 1; n < maxSessions; n *= 4 {
		out = append(out, n)
	}
	return append(out, maxSessions)
}

func run(exp string, scale bench.Scale, threads, sessions int, jsonPath string) error {
	w := os.Stdout
	sep := func() {
		fmt.Fprintln(w, "\n"+string(make([]byte, 0))+"----------------------------------------------------------------")
	}

	type experiment struct {
		name string
		fn   func() error
	}
	experiments := []experiment{
		{"table1", func() error {
			machines := int(2_000_000 * float64(scale))
			if machines < 200_000 {
				machines = 200_000
			}
			return bench.Table1(w, machines, 42)
		}},
		{"figure1", func() error {
			values := int(8_000_000 * float64(scale))
			if values < 100_000 {
				values = 100_000
			}
			return bench.Figure1(w, values)
		}},
		{"ancode", func() error {
			// Kernel benchmark: keep the working set near-cache so the
			// measurement isolates compute overhead, not DRAM noise.
			values := int(2_000_000 * float64(scale))
			if values < 500_000 {
				values = 500_000
			}
			_, err := bench.ANCode(w, values, 7)
			return err
		}},
		{"transfer", func() error {
			rows := int(5_000_000 * float64(scale))
			if rows < 100_000 {
				rows = 100_000
			}
			_, err := bench.Transfer(w, rows)
			return err
		}},
		{"bulkupdate", func() error {
			rows := int(5_000_000 * float64(scale))
			if rows < 100_000 {
				rows = 100_000
			}
			_, err := bench.BulkUpdate(w, rows)
			return err
		}},
		{"engine", func() error {
			rows := int(5_000_000 * float64(scale))
			if rows < 100_000 {
				rows = 100_000
			}
			_, err := bench.Engine(w, rows)
			return err
		}},
		{"joins", func() error {
			build := int(2_000_000 * float64(scale))
			if build < 50_000 {
				build = 50_000
			}
			_, err := bench.Joins(w, build, build)
			return err
		}},
		{"checksum", func() error {
			rows := int(5_000_000 * float64(scale))
			if rows < 200_000 {
				rows = 200_000
			}
			dir, err := os.MkdirTemp("", "quack-e8-*")
			if err != nil {
				return err
			}
			defer func() { _ = os.RemoveAll(dir) }()
			_, err = bench.Checksum(w, dir, rows)
			return err
		}},
		{"dashboard", func() error {
			rows := int(1_000_000 * float64(scale))
			if rows < 50_000 {
				rows = 50_000
			}
			_, err := bench.Dashboard(w, rows, 3*time.Second)
			return err
		}},
		{"scaling", func() error {
			rows := int(2_000_000 * float64(scale))
			if rows < 100_000 {
				rows = 100_000
			}
			points, err := bench.Scaling(w, rows, threadSweep(threads))
			if err != nil {
				return err
			}
			selective, err := bench.ZoneMapFilter(w, rows, threads)
			if err != nil {
				return err
			}
			if jsonPath == "" {
				return nil
			}
			return mergeBenchFile(w, jsonPath, func(f *benchFile) {
				f.Rows = rows
				f.Points = points
				f.Selective = selective
			})
		}},
		{"serve", func() error {
			rows := int(500_000 * float64(scale))
			if rows < 50_000 {
				rows = 50_000
			}
			serve, serveMetrics, err := bench.Serve(w, rows, threads, sessionSweep(sessions))
			if err != nil {
				return err
			}
			if jsonPath == "" {
				return nil
			}
			return mergeBenchFile(w, jsonPath, func(f *benchFile) {
				f.ServeRows = rows
				f.Serve = serve
				f.ServeMetrics = serveMetrics
			})
		}},
	}

	matched := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		matched = true
		fmt.Fprintf(w, "== %s ==\n", e.name)
		if err := e.fn(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		sep()
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// benchFile is the JSON shape of the uploaded trajectory artifact. The
// scaling sweep owns rows/points/selective_filter; the serve sweep owns
// serve_rows/serve; mergeBenchFile lets either run refresh its sections
// without clobbering the other's.
type benchFile struct {
	Experiment string                   `json:"experiment"`
	Rows       int                      `json:"rows,omitempty"`
	Points     []bench.ScalingPoint     `json:"points,omitempty"`
	Selective  []bench.SelectivityPoint `json:"selective_filter,omitempty"`
	ServeRows  int                      `json:"serve_rows,omitempty"`
	Serve      []bench.ServePoint       `json:"serve,omitempty"`
	// ServeMetrics is the engine's metrics-registry snapshot after the
	// serve sweep (counters move with machine and scale).
	ServeMetrics map[string]int64 `json:"serve_metrics,omitempty"`
}

// readBenchFile loads the artifact; a missing file is an empty one (the
// first sweep to run creates it).
func readBenchFile(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("parse %s: %w", path, err)
	}
	return f, nil
}

// mergeBenchFile applies one sweep's sections to the artifact file,
// preserving whatever other sweeps already wrote there.
func mergeBenchFile(w io.Writer, path string, update func(*benchFile)) error {
	f, err := readBenchFile(path)
	if err != nil {
		return err
	}
	f.Experiment = "quack-bench"
	update(&f)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
