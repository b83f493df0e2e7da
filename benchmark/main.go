// Command benchmark is the gate for performance and simplicity claims
// about the engine: three workloads (ways of holding the database), each
// running the same olap, serve and etl phases, fifteen end-to-end
// metrics, and per-layer numbers from probes and a traced run. See
// README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

const (
	// factRows is the size of t and of the etl CSV. It is not a flag: the
	// bounds in BENCHMARK.json hold for this size only.
	factRows       = 100_000
	defaultSeconds = 32
	// setupRepeats is how often set-up runs; setup_s is the median.
	setupRepeats = 5
	outDir       = "benchmark/out"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload: mem_1w, file_warm or file_cold")
		all     = fs.Bool("all", false, "run every workload and print one summary")
		check   = fs.Bool("check", false, "run every workload twice and compare the two against the bounds in BENCHMARK.json")
		seed    = fs.Int64("seed", 1, "seed of the generated tables, CSV and query parameters")
		seconds = fs.Float64("seconds", defaultSeconds, "seconds of timed work per run")
		trace   = fs.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes "+outDir+"/trace-<workload>.json")
		child   = fs.String("child", "", "internal: setup or measure, in a process of its own")
		dir     = fs.String("dir", "", "internal: working directory of a child")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		cfg := runConfig{Workload: w, Seed: *seed, Rows: factRows, Seconds: *seconds, Trace: *trace != 0, Dir: *dir}
		return runChild(*child, cfg, stdout, stderr)
	}

	p := parent{seed: *seed, seconds: *seconds, stderr: stderr}
	switch {
	case *check:
		return p.check(stdout)
	case *all:
		return p.all(*trace != 0, stdout)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: -workload must be one of %v (or use -all, -check)\n", workloadNames())
		return 2
	}
	rep := p.runWorkload(w, *trace != 0)
	printJSON(stdout, rep, true)
	printJSON(stdout, rep.contractLine(), false)
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func printJSON(w io.Writer, v any, indent bool) {
	var buf []byte
	var err error
	if indent {
		buf, err = json.MarshalIndent(v, "", "  ")
	} else {
		buf, err = json.Marshal(v)
	}
	if err != nil {
		panic(err) // the reports hold only plain values
	}
	fmt.Fprintf(w, "%s\n", buf)
}

// childResult is what the measuring process hands back on its stdout.
type childResult struct {
	Attempted   int64              `json:"ops_attempted"`
	Failed      int64              `json:"ops_failed"`
	Errors      []string           `json:"errors,omitempty"`
	Timings     map[string]timing  `json:"timings_ms"`
	Counts      map[string]float64 `json:"counts"`
	EndToEnd    map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Calibration []float64          `json:"calibration_ms"`
	Noisy       bool               `json:"noisy"`
}

// runChild is the body of a child process: one set-up, or one measured
// run of the three phases (and, traced, the probes).
func runChild(kind string, cfg runConfig, stdout, stderr io.Writer) int {
	switch kind {
	case "setup":
		if _, err := setUp(cfg); err != nil {
			fmt.Fprintf(stderr, "benchmark: set-up: %v\n", err)
			return 1
		}
		return 0
	case "measure":
		exp, err := readExpected(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		b := &bench{cfg: cfg, exp: exp, rec: newRecorder()}
		if cfg.Trace {
			b.tr = newTracer()
		}
		var res childResult
		if err := b.measure(); err != nil {
			b.rec.op(err)
		}
		res.Calibration, res.Noisy = b.calibration, noisy(b.calibration)
		rss := peakRSSMB()
		if cfg.Trace {
			res.PerLayer = layerValues(b.rec, b.tr, cfg.Rows)
			probes, err := runProbes(cfg)
			if err != nil {
				b.rec.op(fmt.Errorf("probes: %w", err))
			}
			for k, v := range probes {
				res.PerLayer[k] = v
			}
			path := filepath.Join(outDir, "trace-"+cfg.Workload.Name+".json")
			if err := b.tr.write(path); err != nil {
				b.rec.op(err)
			}
		} else {
			res.EndToEnd = endToEndValues(b.rec, cfg.Rows, rss)
		}
		res.Attempted, res.Failed, res.Errors = b.rec.attempted, b.rec.failed, b.rec.errs
		res.Timings = map[string]timing{}
		for stem, s := range b.rec.samples {
			res.Timings[stem] = summarize(s)
		}
		res.Counts = b.rec.counts
		printJSON(stdout, res, false)
		return 0
	}
	fmt.Fprintf(stderr, "benchmark: unknown -child %q\n", kind)
	return 2
}

// parent runs workloads, each in child processes of this binary: a crash
// or a runaway allocation is then one workload's failure, and
// peak_rss_mb is the measuring process's own.
type parent struct {
	seed    int64
	seconds float64
	stderr  io.Writer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is everything one run of one workload printed.
type workloadReport struct {
	Workload string                 `json:"workload"`
	Why      string                 `json:"why"`
	Traced   bool                   `json:"traced"`
	Record   runRecord              `json:"record"`
	SetupS   []float64              `json:"setup_s_samples"`
	Child    childResult            `json:"run"`
	Metrics  map[string]metricValue `json:"metrics"`
}

func (r workloadReport) correct() bool { return r.Child.Failed == 0 && r.Child.Attempted > 0 }

// contractLine is the last line of a run: what the driver reads.
func (r workloadReport) contractLine() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), max(r.Child.Attempted, 1), r.Child.Failed, r.Metrics}
}

func (p parent) childCmd(kind string, w workload, traced bool, dir string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	t := 0
	if traced {
		t = 1
	}
	cmd := exec.Command(exe, "-child", kind, "-workload", w.Name, "-dir", dir,
		"-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds), "-trace", fmt.Sprint(t))
	cmd.Stderr = p.stderr
	return cmd
}

// runWorkload sets up setupRepeats times, then measures once. Any child
// that fails, or crashes, is a failed op of this workload.
func (p parent) runWorkload(w workload, traced bool) workloadReport {
	rep := workloadReport{Workload: w.Name, Why: w.Why, Traced: traced,
		Record: newRunRecord(p.seed, p.seconds), Metrics: map[string]metricValue{}}
	fail := func(err error) workloadReport {
		rep.Child.Attempted++
		rep.Child.Failed++
		rep.Child.Errors = append(rep.Child.Errors, err.Error())
		return rep
	}
	dir := filepath.Join(outDir, fmt.Sprintf("work-%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(p.stderr, "benchmark: %v\n", err)
		}
	}()

	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := p.childCmd("setup", w, traced, dir).Run(); err != nil {
			return fail(fmt.Errorf("set-up process: %w", err))
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}

	var out bytes.Buffer
	cmd := p.childCmd("measure", w, traced, dir)
	cmd.Stdout = &out
	runErr := cmd.Run()
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rep.Child); err != nil && runErr == nil {
		runErr = fmt.Errorf("measuring process printed no result: %w", err)
	}
	if runErr != nil {
		return fail(fmt.Errorf("measuring process: %w", runErr))
	}

	defs, values := endToEnd, rep.Child.EndToEnd
	if traced {
		defs, values = perLayer, rep.Child.PerLayer
	} else {
		values["setup_s"] = median(rep.SetupS)
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return rep
}

// summary is what -all prints. It ends with the claim, and this
// benchmark makes none: it is the yardstick, not a result.
type summary struct {
	Workloads []workloadReport `json:"workloads"`
	OpsFailed int64            `json:"ops_failed"`
	Claim     *string          `json:"claim"`
}

func (p parent) all(traced bool, stdout io.Writer) int {
	var s summary
	for _, w := range workloads {
		rep := p.runWorkload(w, traced)
		s.Workloads = append(s.Workloads, rep)
		s.OpsFailed += rep.Child.Failed
	}
	printJSON(stdout, s, true)
	if s.OpsFailed > 0 {
		return 1
	}
	return 0
}
