package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is BENCHMARK.json as the driver's contract defines it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// checkRow is one end-to-end metric of one workload, measured twice.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Gap      float64 `json:"gap"` // |first-second| over their mean
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// check runs every workload twice on the same code and fails when the
// two runs disagree on an end-to-end metric by more than the bound the
// benchmark fixes for it: a bound the benchmark cannot keep against
// itself cannot gate a change.
func (p parent) check(stdout io.Writer) int {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(p.stderr, "benchmark: -check runs from the root of the repository: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		fmt.Fprintf(p.stderr, "benchmark: BENCHMARK.json: %v\n", err)
		return 2
	}
	var rows []checkRow
	// noisyWorkloads are those whose eight calibrations, four of each run,
	// do not agree: a gap on one of them is the machine's, not the code's.
	noisyWorkloads := []string{}
	status := 0
	for _, w := range workloads {
		first, second := p.runWorkload(w, false), p.runWorkload(w, false)
		if noisy(append(first.Child.Calibration, second.Child.Calibration...)) {
			noisyWorkloads = append(noisyWorkloads, w.Name)
		}
		if !first.correct() || !second.correct() {
			fmt.Fprintf(p.stderr, "benchmark: %s: failed ops: %v %v\n", w.Name, first.Child.Errors, second.Child.Errors)
			status = 1
		}
		for _, m := range bf.EndToEnd {
			a, b := first.Metrics[m.Name], second.Metrics[m.Name]
			row := checkRow{Workload: w.Name, Metric: m.Name, Unit: a.Unit, First: a.Value, Second: b.Value, Bound: m.Bound}
			row.Gap = math.Abs(a.Value-b.Value) / ((a.Value + b.Value) / 2)
			row.Within = row.Gap <= m.Bound // false for NaN: a missing metric disagrees
			if !row.Within {
				status = 1
			}
			rows = append(rows, row)
		}
	}
	printJSON(stdout, struct {
		Check  []checkRow `json:"check"`
		Noisy  []string   `json:"noisy"`
		Agreed bool       `json:"agreed"`
	}{rows, noisyWorkloads, status == 0}, true)
	return status
}
