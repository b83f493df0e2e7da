// Package faults models the consumer-hardware failure behaviour that
// motivates the paper's resilience requirements (§3). It provides:
//
//   - the empirical 30-day failure probabilities from Nightingale et
//     al.'s million-PC study, as reproduced in the paper's Table 1;
//   - a calibrated two-population ("healthy machines" vs "lemons")
//     probabilistic model whose Monte-Carlo simulation regenerates both
//     the marginal first-failure probabilities and the two-orders-of-
//     magnitude-higher conditional repeat-failure probabilities;
//   - deterministic fault injectors (random bit flips, stuck-bit memory
//     regions, block corrupters) that exercise the engine's detection
//     paths: block checksums, AN codes and buffer memory tests.
//
// Substitution note (docs/ARCHITECTURE.md): the paper's Table 1 is measured on real
// consumer machines, which we do not have; the calibrated model is the
// synthetic equivalent that preserves the statistical shape the paper
// argues from — failures are rare, but a machine that failed once is very
// likely to fail again.
package faults

import (
	"fmt"
	"math/rand"
)

// Component identifies a hardware component in the failure model.
type Component int

// The hardware components from Table 1.
const (
	CPU  Component = iota // machine-check exceptions
	DRAM                  // one-bit flips in kernel memory
	Disk                  // disk subsystem failures
)

// String returns the Table 1 row label.
func (c Component) String() string {
	switch c {
	case CPU:
		return "CPU (MCE)"
	case DRAM:
		return "DRAM bit flip"
	case Disk:
		return "Disk failure"
	}
	return "unknown"
}

// Rates holds a 30-day failure probability pair: the probability of a
// first failure, and the probability of another failure in the next
// 30 days given one already happened.
type Rates struct {
	PFirst       float64 // Pr[1st failure] over a 30-day window
	PSecondGiven float64 // Pr[2nd failure | 1 failure]
}

// Table1 holds the published numbers the paper reproduces from
// Nightingale et al. (EuroSys'11): 1 in 190 / 1700 / 270 machines fail
// per 30 days, and prior failure raises the odds to 1 in 2.9 / 12 / 3.5.
var Table1 = map[Component]Rates{
	CPU:  {PFirst: 1.0 / 190, PSecondGiven: 1.0 / 2.9},
	DRAM: {PFirst: 1.0 / 1700, PSecondGiven: 1.0 / 12},
	Disk: {PFirst: 1.0 / 270, PSecondGiven: 1.0 / 3.5},
}

// Model is a two-population failure model: a fraction of machines are
// "lemons" with a high per-window failure probability, the rest are
// healthy and (to first order) do not fail. Windows are conditionally
// independent given the machine's population, which yields
//
//	Pr[1st failure]        = f*pLemon + (1-f)*pHealthy
//	Pr[2nd | 1st failure]  = (f*pLemon^2 + (1-f)*pHealthy^2) / Pr[1st]
//
// matching the empirical observation that repeat failures are two orders
// of magnitude more likely.
type Model struct {
	LemonFraction float64 // f: share of machines that are lemons
	PLemon        float64 // per-30-day failure probability of a lemon
	PHealthy      float64 // per-30-day failure probability of a healthy machine
}

// Calibrate fits a Model to a target Rates pair. With pHealthy = 0 the
// fit is exact in closed form: pLemon = PSecondGiven and
// f = PFirst / PSecondGiven.
func Calibrate(r Rates) (Model, error) {
	if r.PFirst <= 0 || r.PFirst >= 1 || r.PSecondGiven <= 0 || r.PSecondGiven >= 1 {
		return Model{}, fmt.Errorf("faults: probabilities must be in (0,1): %+v", r)
	}
	if r.PSecondGiven < r.PFirst {
		return Model{}, fmt.Errorf("faults: conditional probability %v below marginal %v", r.PSecondGiven, r.PFirst)
	}
	return Model{
		LemonFraction: r.PFirst / r.PSecondGiven,
		PLemon:        r.PSecondGiven,
		PHealthy:      0,
	}, nil
}

// Predict returns the model's analytic failure rates.
func (m Model) Predict() Rates {
	p1 := m.LemonFraction*m.PLemon + (1-m.LemonFraction)*m.PHealthy
	p11 := m.LemonFraction*m.PLemon*m.PLemon + (1-m.LemonFraction)*m.PHealthy*m.PHealthy
	return Rates{PFirst: p1, PSecondGiven: p11 / p1}
}

// Simulate runs a Monte-Carlo over machines two 30-day windows long and
// returns the measured rates. rng must not be nil.
func (m Model) Simulate(machines int, rng *rand.Rand) Rates {
	firstFails, bothFail := 0, 0
	for i := 0; i < machines; i++ {
		p := m.PHealthy
		if rng.Float64() < m.LemonFraction {
			p = m.PLemon
		}
		w1 := rng.Float64() < p
		w2 := rng.Float64() < p
		if w1 {
			firstFails++
			if w2 {
				bothFail++
			}
		}
	}
	if firstFails == 0 {
		return Rates{}
	}
	return Rates{
		PFirst:       float64(firstFails) / float64(machines),
		PSecondGiven: float64(bothFail) / float64(firstFails),
	}
}

// SimulateTable1 calibrates a model per component and Monte-Carlos it,
// returning measured rates keyed by component. This regenerates Table 1.
func SimulateTable1(machines int, seed int64) (map[Component]Rates, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[Component]Rates, len(Table1))
	for comp, rates := range Table1 {
		m, err := Calibrate(rates)
		if err != nil {
			return nil, err
		}
		out[comp] = m.Simulate(machines, rng)
	}
	return out, nil
}

// Injector produces deterministic hardware-fault effects for tests and
// experiments.
type Injector struct {
	rng *rand.Rand
}

// NewInjector returns a deterministic injector.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// FlipBitsBytes flips n random bits in buf and returns the byte offsets
// that were touched.
func (in *Injector) FlipBitsBytes(buf []byte, n int) []int {
	offsets := make([]int, 0, n)
	for i := 0; i < n && len(buf) > 0; i++ {
		off := in.rng.Intn(len(buf))
		bit := uint(in.rng.Intn(8))
		buf[off] ^= 1 << bit
		offsets = append(offsets, off)
	}
	return offsets
}

// FlipBitsInt64 flips n random bits across the words of buf and returns
// the word indexes that were touched.
func (in *Injector) FlipBitsInt64(buf []int64, n int) []int {
	idxs := make([]int, 0, n)
	for i := 0; i < n && len(buf) > 0; i++ {
		idx := in.rng.Intn(len(buf))
		bit := uint(in.rng.Intn(64))
		buf[idx] ^= 1 << bit
		idxs = append(idxs, idx)
	}
	return idxs
}

// StuckBitRegion returns a memtest fault hook simulating a RAM region
// where one bit is stuck at 1: any write to the afflicted byte reads
// back with that bit set. offset is relative to the buffer start.
func StuckBitRegion(offset int, bit uint) func(buf []byte) {
	return func(buf []byte) {
		if offset < len(buf) {
			buf[offset] |= 1 << (bit & 7)
		}
	}
}

// IntermittentFlip returns a memtest fault hook that flips a bit only
// every nth invocation, modelling the intermittent, data-dependent
// errors §3 warns simple pattern tests can miss.
func IntermittentFlip(offset int, bit uint, nth int) func(buf []byte) {
	count := 0
	return func(buf []byte) {
		count++
		if count%nth == 0 && offset < len(buf) {
			buf[offset] ^= 1 << (bit & 7)
		}
	}
}
