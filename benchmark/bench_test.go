package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/quack"
)

// tinyConfig is a run small enough for a unit test.
func tinyConfig(t *testing.T, workload string, seed int64, trace bool) runConfig {
	t.Helper()
	w, ok := workloadByName(workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	return runConfig{Workload: w, Seed: seed, Rows: 20_000, Seconds: 0.4, Trace: trace, Dir: t.TempDir()}
}

func TestSameSeedSameAnswers(t *testing.T) {
	a, err := setUp(tinyConfig(t, "mem_1w", 7, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := setUp(tinyConfig(t, "file_warm", 7, false))
	if err != nil {
		t.Fatal(err)
	}
	c, err := setUp(tinyConfig(t, "mem_1w", 8, false))
	if err != nil {
		t.Fatal(err)
	}
	enc := func(e expected) string {
		buf, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	if enc(a) != enc(b) {
		t.Errorf("the same seed gave different fingerprints or counts:\n%s\n%s", enc(a), enc(b))
	}
	if enc(a) == enc(c) {
		t.Errorf("seeds 7 and 8 gave the same fingerprints and counts")
	}
	if a.Fact.Rows != 20_000 || a.Csv.Rows != 20_000 {
		t.Errorf("generator counted %d and %d rows, want 20000", a.Fact.Rows, a.Csv.Rows)
	}
}

func TestPHi(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10_000, 99.9}} {
		if got := pHi(c.n); got != c.want {
			t.Errorf("pHi(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := summarize([]float64{5, 1, 3})
	if s.P50 != 3 || s.N != 3 || s.PHi != 0 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	kids := []span{{Start: 100, End: 130}, {Start: 130, End: 150}}
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("self time = %d, want 50", got)
	}
	// Children that cover more than the parent leave no negative self time.
	if got := selfTime(parent, []span{{Start: 100, End: 260}}); got != 0 {
		t.Errorf("self time = %d, want 0", got)
	}

	// An operator tree: the scan leaf's busy time is split over the workers.
	tr := newTracer()
	ct := &classTrace{SelfNs: map[string]int64{}}
	execute := tr.newSpan(0, 0, "exec", "execute", 0, 1000)
	tr.operator(ct, execute, &engineOp{Name: "SORT a", WallNs: 900, Children: []*engineOp{
		{Name: "SCAN t", BusyNs: 400, SegmentsScanned: 2},
	}}, 2)
	if ct.SelfNs["sort"] != 700 || ct.SelfNs["scan"] != 200 || ct.ScanBusy != 400 || ct.ScanRows != 2*chunkRows {
		t.Errorf("operator sums = %+v", ct)
	}
}

func TestWrongFingerprintIsAFailedOp(t *testing.T) {
	db, err := quack.Open(":memory:", quack.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	right := fingerprint(rows)
	b := &bench{rec: newRecorder()}
	b.checked(db.Conn(), "scan", "SELECT a FROM t", right, true)
	if b.rec.attempted != 1 || b.rec.failed != 0 {
		t.Fatalf("right fingerprint: attempted %d, failed %d", b.rec.attempted, b.rec.failed)
	}
	wrong := right
	wrong.Fingerprint++
	b.checked(db.Conn(), "scan", "SELECT a FROM t", wrong, true)
	if b.rec.attempted != 2 || b.rec.failed != 1 {
		t.Errorf("wrong fingerprint: attempted %d, failed %d, want 2 and 1", b.rec.attempted, b.rec.failed)
	}
	// A timed round checks the row count only.
	wrong.Rows++
	b.checked(db.Conn(), "scan", "SELECT a FROM t", wrong, false)
	if b.rec.failed != 2 {
		t.Errorf("wrong row count: failed %d, want 2", b.rec.failed)
	}
}

func readBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesOutput runs one tiny untraced and one tiny
// traced workload in this process and checks that every name in
// BENCHMARK.json comes out, with the unit the file gives.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v does not match %+v", i, w, workloads[i])
		}
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the default of -seconds is %d", bj.RunSeconds, defaultSeconds)
	}

	run := func(workload string, trace bool) (*bench, map[string]float64) {
		cfg := tinyConfig(t, workload, 1, trace)
		exp, err := setUp(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{cfg: cfg, exp: exp, rec: newRecorder()}
		if trace {
			b.tr = newTracer()
		}
		if err := b.measure(); err != nil {
			t.Fatal(err)
		}
		if b.rec.failed != 0 || b.rec.attempted == 0 {
			t.Fatalf("%s: %d of %d ops failed: %v", workload, b.rec.failed, b.rec.attempted, b.rec.errs)
		}
		if !trace {
			v := endToEndValues(b.rec, cfg.Rows, peakRSSMB())
			v["setup_s"] = 1
			return b, v
		}
		v := layerValues(b.rec, b.tr, cfg.Rows)
		probes, err := runProbes(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, x := range probes {
			v[k] = x
		}
		return b, v
	}

	_, got := run("mem_1w", false)
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !nameRE.MatchString(m.Name) {
			t.Errorf("end_to_end %d: %+v does not match %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if v, ok := got[m.Name]; !ok || !(v > 0) {
			t.Errorf("%s: the run printed %v, want a value above 0", m.Name, v)
		}
		sawSetup = sawSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !sawSetup {
		t.Error("no setup_s in s, lower is better")
	}

	b, got := run("file_cold", true)
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !nameRE.MatchString(m.Name) {
			t.Errorf("per_layer %d: %+v does not match %+v", i, m, d)
		}
		if _, ok := got[m.Name]; !ok {
			t.Errorf("%s: the traced run did not print it", m.Name)
		}
	}
	if got["trace.overhead_ratio"] <= 0 || len(b.tr.spans) == 0 {
		t.Errorf("traced run: overhead ratio %v, %d spans", got["trace.overhead_ratio"], len(b.tr.spans))
	}
}

// TestBoundsFollowSpreads ties every bound in BENCHMARK.json to the
// spreads measured for it, which spreads.json records: three times the
// widest, rounded up to 0.01, within [0.10, 0.25]; setup_s has 0.25.
func TestBoundsFollowSpreads(t *testing.T) {
	buf, err := os.ReadFile("spreads.json")
	if err != nil {
		t.Fatal(err)
	}
	var measured struct {
		Spread map[string]map[string][]float64 `json:"spread"`
	}
	if err := json.Unmarshal(buf, &measured); err != nil {
		t.Fatalf("spreads.json: %v", err)
	}
	for _, m := range readBenchmarkJSON(t).EndToEnd {
		byWorkload := measured.Spread[m.Name]
		if len(byWorkload) != len(workloads) {
			t.Errorf("%s: spreads.json has it on %d workloads, want %d", m.Name, len(byWorkload), len(workloads))
			continue
		}
		widest := 0.0
		for _, batches := range byWorkload {
			widest = max(widest, slices.Max(batches))
		}
		want := min(0.25, max(0.10, math.Ceil(math.Round(3*widest*1e6)/1e4)/100))
		if m.Name == "setup_s" {
			want = 0.25
		}
		if math.Abs(m.Bound-want) > 1e-9 {
			t.Errorf("%s: bound %v, but its widest spread %v asks for %v", m.Name, m.Bound, widest, want)
		}
	}
}

func TestContractLine(t *testing.T) {
	rep := workloadReport{Metrics: map[string]metricValue{"setup_s": {1.5, "s"}}}
	rep.Child.Attempted, rep.Child.Failed = 10, 1
	buf, err := json.Marshal(rep.contractLine())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":false,"attempted":10,"failed":1,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}`
	if string(buf) != want {
		t.Errorf("contract line\n got %s\nwant %s", buf, want)
	}
}

func TestNoisy(t *testing.T) {
	if noisy(nil) || noisy([]float64{200, 215, 205, 210}) || !noisy([]float64{200, 205, 225, 203}) || !noisy([]float64{225, 200}) {
		t.Error("noisy marks a gap of more than 10% of the fastest calibration, wherever in the run it falls")
	}
	if d := calibrate(); d <= 0 || d > float64(5*time.Second/time.Millisecond) {
		t.Errorf("calibration took %v ms", d)
	}
}

// A child process that dies is a failed op of its workload, not a lost
// report. Here the child is this test binary, which knows no -child flag
// and exits at once, as a crashed measuring process would.
func TestDeadChildIsAFailedOp(t *testing.T) {
	t.Chdir(t.TempDir())
	var stderr bytes.Buffer
	rep := parent{seed: 1, seconds: 0.1, stderr: &stderr}.runWorkload(workloads[0], false)
	if rep.correct() || rep.Child.Failed != 1 || len(rep.Child.Errors) != 1 {
		t.Errorf("report of a dead child: failed %d, errors %v", rep.Child.Failed, rep.Child.Errors)
	}
}
