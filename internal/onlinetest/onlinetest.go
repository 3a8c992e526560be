// Package onlinetest implements the generator-specific online test the
// paper proposes in its conclusion: an embedded, counter-based monitor
// of the THERMAL noise contribution to the jitter.
//
// Rationale (paper §IV–V): the thermal-only jitter σ = sqrt(b_th/f0³) is
// the quantity entropy certification rests on, and it can be measured
// with nothing but the Fig.-6 counter at a small accumulation length
// N < N*(95 %) where jitter realizations are still effectively
// independent and σ²_N ≈ 2·N·σ². A drop of the measured σ²_N below a
// calibrated alarm threshold signals an attack on the entropy source
// (frequency injection, cooling, locking) — quickly, because small-N
// windows are short.
//
// The monitor keeps a sliding window of W counter-derived s_N samples
// (taken by a Sampler from disjoint window pairs, so they are
// independent as the bounds require), computes their variance, and
// compares it against chi-square alarm bounds calibrated from the
// reference σ²_N. Crucially — and this is the paper's point — the
// reference must be the THERMAL part only, extracted with the
// quadratic fit; calibrating against total measured jitter at large N
// would bake flicker noise into the reference and blind the test to
// thermal-noise loss.
//
// In the serving stack the monitor runs embedded: internal/entropyd
// attaches one Monitor (fed by a dedicated measure.Counter) to every
// pool shard and quarantines the shard on any alarm.
package onlinetest

import (
	"fmt"

	"repro/internal/measure"
	"repro/internal/stats"
)

// Config parameterizes a Monitor.
type Config struct {
	// N is the accumulation length per counter window; keep it below
	// the model's independence threshold (paper: N < 281 for
	// r_N > 95 %).
	N int
	// Window is the number of s_N samples per variance estimate.
	Window int
	// RefSigmaN2 is the expected (thermal) σ²_N at this N, from the
	// calibrated model: 2·N·b_th/f0³.
	RefSigmaN2 float64
	// AlphaLow is the false-alarm probability of the low-side alarm
	// (entropy loss). Default 1e-6 per window.
	AlphaLow float64
	// AlphaHigh is the false-alarm probability of the high-side
	// alarm (total failure / stuck counter produces zero variance,
	// but a strong injected beat can also inflate variance).
	// Default 1e-6.
	AlphaHigh float64
}

// Monitor is a running online test.
type Monitor struct {
	cfg      Config
	loBound  float64 // variance alarm threshold, low side
	hiBound  float64 // high side
	buf      []float64
	pos      int
	filled   bool
	lastVar  float64
	windows  int
	alarms   int
	lowSide  int
	highSide int
}

// New validates the configuration and builds a Monitor. The chi-square
// bounds assume approximately Gaussian s_N with (Window−1) degrees of
// freedom: Var̂·(W−1)/σ²_ref ~ χ²(W−1) under the null.
func New(cfg Config) (*Monitor, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("onlinetest: N = %d must be >= 1", cfg.N)
	}
	if cfg.Window < 8 {
		return nil, fmt.Errorf("onlinetest: window %d too small (need >= 8)", cfg.Window)
	}
	if cfg.RefSigmaN2 <= 0 {
		return nil, fmt.Errorf("onlinetest: reference σ²_N = %g must be > 0", cfg.RefSigmaN2)
	}
	if cfg.AlphaLow == 0 {
		cfg.AlphaLow = 1e-6
	}
	if cfg.AlphaHigh == 0 {
		cfg.AlphaHigh = 1e-6
	}
	dof := float64(cfg.Window - 1)
	lo := stats.ChiSquareQuantile(cfg.AlphaLow, dof) / dof * cfg.RefSigmaN2
	hi := stats.ChiSquareQuantile(1-cfg.AlphaHigh, dof) / dof * cfg.RefSigmaN2
	return &Monitor{
		cfg:     cfg,
		loBound: lo,
		hiBound: hi,
		buf:     make([]float64, cfg.Window),
	}, nil
}

// Bounds returns the calibrated variance alarm thresholds.
func (m *Monitor) Bounds() (lo, hi float64) { return m.loBound, m.hiBound }

// Status is the monitor verdict after one s_N sample.
type Status int

// Monitor statuses.
const (
	// OK: within bounds or window not yet filled.
	OK Status = iota
	// AlarmLow: measured thermal jitter variance below the low
	// threshold — entropy source degraded (attack, locking, cooling).
	AlarmLow
	// AlarmHigh: variance above the high threshold — injected beat
	// or measurement fault.
	AlarmHigh
)

// String names the status.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case AlarmLow:
		return "alarm-low"
	case AlarmHigh:
		return "alarm-high"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Push feeds one s_N observation (seconds) and returns the current
// status. The variance is recomputed over the sliding window each time
// the buffer is full.
func (m *Monitor) Push(sn float64) Status {
	m.buf[m.pos] = sn
	m.pos++
	if m.pos == len(m.buf) {
		m.pos = 0
		m.filled = true
	}
	if !m.filled {
		return OK
	}
	_, v := stats.MeanVariance(m.buf)
	m.lastVar = v
	m.windows++
	switch {
	case v < m.loBound:
		m.alarms++
		m.lowSide++
		return AlarmLow
	case v > m.hiBound:
		m.alarms++
		m.highSide++
		return AlarmHigh
	default:
		return OK
	}
}

// LastVariance returns the most recent windowed variance estimate.
func (m *Monitor) LastVariance() float64 { return m.lastVar }

// Counts returns (windows evaluated, low alarms, high alarms).
func (m *Monitor) Counts() (windows, low, high int) {
	return m.windows, m.lowSide, m.highSide
}

// Sampler turns a counter's window counts into the monitor's s_N
// observations (eq. 12): every sample is the difference of two FRESH
// consecutive counts, s_N = (Q_b − Q_a)/(M·f0), so no two samples share
// a counting window. Differencing overlapping pairs instead (Q_i −
// Q_{i−1}, then Q_{i+1} − Q_i) gives adjacent samples a lag-1
// correlation of −1/2 — the independence assumption the paper warns
// about, here made by the test itself — and the windowed variance of
// such a series is not χ²(W−1): its tails are fat enough to raise the
// false-alarm rate far above the design α. Disjoint samples are
// independent under the thermal-only null, so the bounds New computes
// hold exactly. The marginal distribution (σ²_N plus the quantization
// floor) is the same either way; each sample spans 2·N periods.
type Sampler struct {
	c     *measure.Counter
	scale float64
}

// NewSampler wraps a counter.
func NewSampler(c *measure.Counter) Sampler {
	return Sampler{c: c, scale: c.PeriodOsc1() / float64(c.Subdivision())}
}

// Next reads two fresh counting windows and returns their s_N (seconds).
func (s Sampler) Next() float64 {
	a := s.c.NextQ()
	b := s.c.NextQ()
	return float64(b-a) * s.scale
}

// RunResult summarizes a monitored run.
type RunResult struct {
	// Windows is the number of evaluated sliding windows.
	Windows int
	// FirstAlarmWindow is the index (in evaluated windows) of the
	// first alarm, or −1.
	FirstAlarmWindow int
	// FirstAlarmSamples is the same expressed in s_N samples
	// consumed before the alarm fired.
	FirstAlarmSamples int
	// LowAlarms and HighAlarms count alarm windows.
	LowAlarms, HighAlarms int
}

// Run drives the monitor from a counter for total s_N samples (each
// taken by a Sampler, so 2·N counted periods apiece), returning the
// alarm summary. The counter must be configured with the same N.
func Run(m *Monitor, c *measure.Counter, samples int) (RunResult, error) {
	if c.N() != m.cfg.N {
		return RunResult{}, fmt.Errorf("onlinetest: counter N=%d does not match monitor N=%d", c.N(), m.cfg.N)
	}
	res := RunResult{FirstAlarmWindow: -1, FirstAlarmSamples: -1}
	sampler := NewSampler(c)
	for i := 0; i < samples; i++ {
		st := m.Push(sampler.Next())
		if st != OK {
			if res.FirstAlarmWindow < 0 {
				res.FirstAlarmWindow = res.Windows
				res.FirstAlarmSamples = i + 1
			}
			if st == AlarmLow {
				res.LowAlarms++
			} else {
				res.HighAlarms++
			}
		}
	}
	res.Windows, _, _ = m.Counts()
	return res, nil
}
