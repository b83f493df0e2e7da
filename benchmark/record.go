package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runRecord is the machine shape a number was measured on.
type runRecord struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg    string  `json:"load_average"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rows       int     `json:"rows"`
}

func newRunRecord(seed int64, seconds float64) runRecord {
	return runRecord{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		LoadAvg:    firstLine("/proc/loadavg"),
		Seed:       seed,
		Seconds:    seconds,
		Rows:       factRows,
	}
}

// commit asks git; a checkout that is not a repository has no answer.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func firstLine(path string) string {
	buf, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	return line
}

// procField returns the value of the first "key : value" line of a
// /proc file, or "" when there is none.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer func() { _ = f.Close() }() // only read
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is VmHWM of this process, the most memory it ever held.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// calibrationSteps is fixed work of about 200 ms on the machine the
// bounds were set on. It is timed before the first phase and after every
// phase; when the slowest of the four takes more than noisyGap longer
// than the fastest something else had the CPU, and the run says so. It
// is arithmetic in registers, so it does not feel a neighbour that takes
// memory bandwidth and leaves the CPU alone; see README, noise guard.
const (
	calibrationSteps = 95_000_000
	noisyGap         = 0.10
)

var calibrationSink uint64

func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibrationSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func noisy(calibrations []float64) bool {
	if len(calibrations) == 0 {
		return false
	}
	lo, hi := slices.Min(calibrations), slices.Max(calibrations)
	return (hi-lo)/lo > noisyGap
}
