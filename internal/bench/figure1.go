package bench

import (
	"sync"
	"time"

	"repro/internal/bench/adaptive"
	"repro/internal/compress"
)

// The Figure 1 simulation (experiment E2): an in-memory intermediate
// that re-encodes itself as adaptive.Policy reacts to a scripted
// application RAM profile. It lives beside the experiments because the
// engine has no operator that does this; only the Monitor and the Policy
// thresholds it drives are engine code.

// CompressedIntermediate is an in-memory intermediate structure (e.g. an
// aggregation hash table's payload) that re-encodes itself when the
// policy's compression level changes — the mechanism behind Figure 1.
type CompressedIntermediate struct {
	mu    sync.Mutex
	level compress.Level
	raw   []int64 // kept only at level None
	enc   []byte  // kept at Light/Heavy
}

// NewCompressedIntermediate wraps data (takes ownership).
func NewCompressedIntermediate(data []int64) *CompressedIntermediate {
	return &CompressedIntermediate{level: compress.None, raw: data}
}

// FootprintBytes returns the structure's current resident size.
func (c *CompressedIntermediate) FootprintBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.level == compress.None {
		return int64(len(c.raw)) * 8
	}
	return int64(len(c.enc))
}

// SetLevel re-encodes to the requested level, returning the CPU time
// spent — the cycles the DBMS trades for the application's RAM.
func (c *CompressedIntermediate) SetLevel(l compress.Level) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l == c.level {
		return 0, nil
	}
	start := time.Now()
	// Decode to raw first if needed.
	if c.level != compress.None {
		raw, err := compress.DecompressInt64(c.enc)
		if err != nil {
			return 0, err
		}
		c.raw = raw
		c.enc = nil
	}
	if l != compress.None {
		c.enc = compress.CompressInt64(c.raw, l)
		c.raw = nil
	}
	c.level = l
	return time.Since(start), nil
}

// Select evaluates "value op c" over the intermediate and returns the
// indexes of matching entries. At Light the payload stays compressed
// and the predicate runs over the encoding itself — one comparison per
// RLE run, or a packed-domain compare for frame-of-reference — so the
// structure is queryable without giving back the RAM the policy just
// reclaimed. Heavy (flate) and None fall back to a plain scan.
func (c *CompressedIntermediate) Select(op compress.CmpOp, cval int64) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.level == compress.None {
		return selectInt64Slice(c.raw, op, cval), nil
	}
	if n, ok := compress.Int64Count(c.enc); ok {
		match := make([]bool, n)
		for i := range match {
			match[i] = true
		}
		if compress.SelectInt64(c.enc, op, cval, match) {
			sel := make([]int, 0, n)
			for i, m := range match {
				if m {
					sel = append(sel, i)
				}
			}
			return sel, nil
		}
	}
	raw, err := compress.DecompressInt64(c.enc)
	if err != nil {
		return nil, err
	}
	return selectInt64Slice(raw, op, cval), nil
}

func selectInt64Slice(vals []int64, op compress.CmpOp, c int64) []int {
	sel := make([]int, 0, len(vals))
	for i, v := range vals {
		cmp := 0
		switch {
		case v < c:
			cmp = -1
		case v > c:
			cmp = 1
		}
		if compress.OpHolds(op, cmp) {
			sel = append(sel, i)
		}
	}
	return sel
}

// Values decodes the current contents (for correctness checks and for
// the DBMS's own operators to consume).
func (c *CompressedIntermediate) Values() ([]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.level == compress.None {
		out := make([]int64, len(c.raw))
		copy(out, c.raw)
		return out, nil
	}
	return compress.DecompressInt64(c.enc)
}

// Figure1Point is one timestep of the reactive-compression experiment.
type Figure1Point struct {
	Step     int
	AppRAM   int64          // application's RAM use (driven by the scenario)
	DBMSRAM  int64          // DBMS intermediate footprint after reacting
	TotalRAM int64          // AppRAM + DBMSRAM
	Level    compress.Level // level chosen by the policy
	CPU      time.Duration  // re-encoding cost paid this step
}

// Figure1Config parameterizes the Figure 1 reproduction.
type Figure1Config struct {
	TotalRAM   int64   // machine RAM in bytes
	Values     []int64 // the DBMS's intermediate data
	AppProfile []int64 // application RAM usage per step
}

// SimulateFigure1 replays the paper's Figure 1 scenario: the application
// ramps its RAM usage up and back down; the DBMS's policy reacts by
// compressing its intermediate none→light→heavy and relaxing again.
func SimulateFigure1(cfg Figure1Config) ([]Figure1Point, error) {
	monitor := adaptive.NewMonitor()
	policy := adaptive.NewPolicy(monitor, cfg.TotalRAM)
	inter := NewCompressedIntermediate(append([]int64(nil), cfg.Values...))
	out := make([]Figure1Point, 0, len(cfg.AppProfile))
	for step, appRAM := range cfg.AppProfile {
		monitor.SetAppUsage(adaptive.Usage{AppRAM: appRAM})
		level := policy.CompressionLevel()
		cpu, err := inter.SetLevel(level)
		if err != nil {
			return nil, err
		}
		dbms := inter.FootprintBytes()
		out = append(out, Figure1Point{
			Step:     step,
			AppRAM:   appRAM,
			DBMSRAM:  dbms,
			TotalRAM: appRAM + dbms,
			Level:    level,
			CPU:      cpu,
		})
	}
	return out, nil
}

// RampProfile builds a symmetric app-RAM profile: idle, ramp up to peak,
// hold, ramp down — the shape of Figure 1's application curve.
func RampProfile(idle, peak int64, idleSteps, rampSteps, holdSteps int) []int64 {
	var out []int64
	for i := 0; i < idleSteps; i++ {
		out = append(out, idle)
	}
	for i := 1; i <= rampSteps; i++ {
		out = append(out, idle+(peak-idle)*int64(i)/int64(rampSteps))
	}
	for i := 0; i < holdSteps; i++ {
		out = append(out, peak)
	}
	for i := rampSteps - 1; i >= 0; i-- {
		out = append(out, idle+(peak-idle)*int64(i)/int64(rampSteps))
	}
	for i := 0; i < idleSteps; i++ {
		out = append(out, idle)
	}
	return out
}
