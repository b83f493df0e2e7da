// Package adaptive models the paper's cooperation surface (§4) for the
// Figure 1 reproduction beside it: the host reports its resource usage
// (Monitor) and a Policy turns an observation into decisions — compress
// in-memory intermediates harder as the application's RAM need grows
// (Figure 1), trade the RAM-hungry hash join for the out-of-core merge
// join under memory pressure.
//
// The engine does not consult it. quack reacts to memory pressure
// through the memory_limit budget — spilling, admission control, the
// Auto join's merge fallback — which the host moves as its own need
// changes (examples/dashboard).
package adaptive

import (
	"runtime"
	"sync"

	"repro/internal/compress"
)

// Usage is an observation of the host application's resource
// consumption.
type Usage struct {
	AppRAM int64   // bytes of RAM the application is using
	AppCPU float64 // fraction [0,1] of CPU the application is using
}

// Monitor tracks the most recent usage observation. In a real deployment
// the feed would come from OS counters; the simulation pushes
// observations via SetAppUsage.
type Monitor struct {
	mu  sync.RWMutex
	cur Usage
}

// NewMonitor returns a monitor with zero usage.
func NewMonitor() *Monitor { return &Monitor{} }

// SetAppUsage records the application's current resource usage.
func (m *Monitor) SetAppUsage(u Usage) {
	m.mu.Lock()
	m.cur = u
	m.mu.Unlock()
}

// AppUsage returns the most recent observation.
func (m *Monitor) AppUsage() Usage {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cur
}

// SelfRAM samples the Go runtime's current heap footprint — the DBMS's
// own share of the machine.
func SelfRAM() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// Policy converts usage observations into engine decisions.
type Policy struct {
	Monitor *Monitor
	// TotalRAM is the machine's memory the application and DBMS share.
	TotalRAM int64
	// LightAt and HeavyAt are the application-usage fractions of
	// TotalRAM at which the engine switches to light and heavy
	// compression of intermediates.
	LightAt float64
	HeavyAt float64
}

// NewPolicy returns a policy with the default thresholds (light
// compression once the app uses 50% of RAM, heavy at 75%).
func NewPolicy(m *Monitor, totalRAM int64) *Policy {
	return &Policy{Monitor: m, TotalRAM: totalRAM, LightAt: 0.50, HeavyAt: 0.75}
}

// CompressionLevel picks the intermediate-compression level for the
// current application pressure (Figure 1's reactive pattern).
func (p *Policy) CompressionLevel() compress.Level {
	if p.TotalRAM <= 0 {
		return compress.None
	}
	frac := float64(p.Monitor.AppUsage().AppRAM) / float64(p.TotalRAM)
	switch {
	case frac >= p.HeavyAt:
		return compress.Heavy
	case frac >= p.LightAt:
		return compress.Light
	default:
		return compress.None
	}
}

// PreferMergeJoin reports whether an equi-join with the given estimated
// build-side size should use the out-of-core merge join: either the
// build would not leave the application enough RAM, or the application
// is already CPU-idle but RAM-hungry (§4's hash→merge trade).
func (p *Policy) PreferMergeJoin(buildBytes int64) bool {
	if p.TotalRAM <= 0 {
		return false
	}
	u := p.Monitor.AppUsage()
	free := p.TotalRAM - u.AppRAM
	return buildBytes > free/2
}
