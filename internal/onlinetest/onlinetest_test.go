package onlinetest

import (
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/measure"
	"repro/internal/osc"
	"repro/internal/phase"
	"repro/internal/rng"
	"repro/internal/stats"
)

func paperModel() phase.Model {
	const f0 = 103e6
	return phase.Model{
		Bth: 5.36e-6 * f0 / 2,
		Bfl: 5.36e-6 / 5354 * f0 * f0 / (8 * math.Ln2),
		F0:  f0,
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{N: 64, Window: 128, RefSigmaN2: 1e-20}
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{N: 0, Window: 128, RefSigmaN2: 1e-20},
		{N: 64, Window: 4, RefSigmaN2: 1e-20},
		{N: 64, Window: 128, RefSigmaN2: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBoundsOrdering(t *testing.T) {
	m, err := New(Config{N: 64, Window: 256, RefSigmaN2: 1e-20})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.Bounds()
	if !(lo < 1e-20 && 1e-20 < hi) {
		t.Fatalf("bounds (%g, %g) do not bracket the reference", lo, hi)
	}
}

func TestNoFalseAlarmsUnderNull(t *testing.T) {
	// Feed Gaussian s_N with exactly the reference variance: with
	// α = 1e-6 per side, thousands of windows must not alarm.
	const ref = 4e-21
	m, err := New(Config{N: 64, Window: 128, RefSigmaN2: ref})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	sd := math.Sqrt(ref)
	for i := 0; i < 20000; i++ {
		if st := m.Push(r.NormScaled(0, sd)); st != OK {
			t.Fatalf("false alarm %v at sample %d (var %g)", st, i, m.LastVariance())
		}
	}
	w, lo, hi := m.Counts()
	if w == 0 || lo != 0 || hi != 0 {
		t.Fatalf("counts: %d windows, %d low, %d high", w, lo, hi)
	}
}

func TestAlarmLowOnCollapse(t *testing.T) {
	const ref = 4e-21
	m, err := New(Config{N: 64, Window: 128, RefSigmaN2: ref})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	// Healthy phase.
	sd := math.Sqrt(ref)
	for i := 0; i < 1000; i++ {
		m.Push(r.NormScaled(0, sd))
	}
	// Entropy-source collapse: jitter drops to 10% amplitude.
	fired := false
	for i := 0; i < 1000 && !fired; i++ {
		fired = m.Push(r.NormScaled(0, sd/10)) == AlarmLow
	}
	if !fired {
		t.Fatal("no low alarm after collapse")
	}
}

func TestAlarmHighOnInflation(t *testing.T) {
	const ref = 4e-21
	m, err := New(Config{N: 64, Window: 128, RefSigmaN2: ref})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	sd := math.Sqrt(ref)
	fired := false
	for i := 0; i < 2000 && !fired; i++ {
		fired = m.Push(r.NormScaled(0, sd*10)) == AlarmHigh
	}
	if !fired {
		t.Fatal("no high alarm on 100× variance")
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{OK, AlarmLow, AlarmHigh, Status(9)} {
		if s.String() == "" {
			t.Fatalf("empty name for %d", s)
		}
	}
}

func TestRunCleanOscillators(t *testing.T) {
	mdl := paperModel()
	pair, err := osc.NewPair(mdl, 0, osc.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	rel := pair.RelativeModel()
	c, err := measure.NewCounterConfig(pair, n, measure.Config{Subdivide: 64})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(Config{N: n, Window: 256, RefSigmaN2: rel.SigmaN2(n) + c.QuantizationFloor()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mon, c, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.LowAlarms+res.HighAlarms > 0 {
		t.Fatalf("alarms on clean hardware: %+v", res)
	}
	if res.Windows == 0 {
		t.Fatal("no windows evaluated")
	}
}

func TestRunDetectsThermalSuppression(t *testing.T) {
	mdl := paperModel()
	pair, err := osc.NewPair(mdl, 0, osc.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Attack switches on immediately (onset 0) on both rings.
	attack.ThermalSuppression{Factor: 0.95}.Arm(pair.Osc1)
	attack.ThermalSuppression{Factor: 0.95}.Arm(pair.Osc2)
	const n = 64
	rel := pair.RelativeModel()
	c, err := measure.NewCounterConfig(pair, n, measure.Config{Subdivide: 64})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(Config{N: n, Window: 256, RefSigmaN2: rel.SigmaN2(n) + c.QuantizationFloor()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mon, c, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstAlarmWindow < 0 {
		t.Fatal("suppression attack not detected")
	}
	if res.LowAlarms == 0 {
		t.Fatalf("expected low-side alarms, got %+v", res)
	}
}

func TestRunMismatchedN(t *testing.T) {
	mdl := paperModel()
	pair, err := osc.NewPair(mdl, 0, osc.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := measure.NewCounter(pair, 32)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(Config{N: 64, Window: 64, RefSigmaN2: 1e-20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(mon, c, 100); err == nil {
		t.Fatal("mismatched N accepted")
	}
}

// TestSamplerDisjointWindows contrasts the Sampler with differencing
// overlapping windows on the same hardware: sharing a counting window
// gives adjacent s_N a lag-1 correlation of −1/2 (the chi-square bounds
// would not hold), fresh window pairs give independent samples with
// the same variance.
func TestSamplerDisjointWindows(t *testing.T) {
	const n, samples = 64, 10000
	series := func(seed uint64, overlap bool) []float64 {
		pair, err := osc.NewPair(paperModel(), 2e-3, osc.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		c, err := measure.NewCounterConfig(pair, n, measure.Config{Subdivide: 64})
		if err != nil {
			t.Fatal(err)
		}
		if overlap {
			return c.SN(samples)
		}
		s := NewSampler(c)
		out := make([]float64, samples)
		for i := range out {
			out[i] = s.Next()
		}
		return out
	}
	fresh, shared := series(7, false), series(7, true)
	if r := stats.Autocorrelation(fresh, 1)[1]; math.Abs(r) >= 0.05 {
		t.Errorf("Sampler lag-1 = %.3f, want |r| < 0.05", r)
	}
	if r := stats.Autocorrelation(shared, 1)[1]; math.Abs(r+0.5) >= 0.05 {
		t.Errorf("overlapping-window lag-1 = %.3f, want ≈ −0.5", r)
	}
	_, vf := stats.MeanVariance(fresh)
	_, vs := stats.MeanVariance(shared)
	if ratio := vf / vs; math.Abs(ratio-1) > 0.1 {
		t.Errorf("variance ratio fresh/shared = %.3f, want ≈ 1", ratio)
	}
}
