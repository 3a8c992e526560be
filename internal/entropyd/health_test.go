package entropyd

import (
	"context"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/osc"
	"repro/internal/rng"
	"repro/internal/stats"
)

// TestHealthCycleTot drives a shard through the full state machine on
// the total-failure path: healthy → tot alarm (source flatlines) →
// quarantined (mid-fill, with the pool degrading instead of failing) →
// recalibration → healthy again.
func TestHealthCycleTot(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Shards: 2,
		Seed:   7,
		Health: HealthConfig{DisableMonitor: true, TotWindow: 64},
		NewSource: func(shard, epoch int, seed uint64) (RawSource, error) {
			fail := uint64(math.MaxUint64)
			if shard == 0 && epoch == 0 {
				// Dies 3000 bits into service (after the startup
				// test consumed its 20000).
				fail = startupBits + 3000
			}
			return &scriptSource{r: rng.New(seed), failAfter: fail}, nil
		},
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Healthy() != 2 {
		t.Fatalf("healthy = %d before failure", p.Healthy())
	}

	// The fill must complete despite shard 0 dying mid-way: its blocks
	// are redistributed to shard 1.
	buf := make([]byte, 2048)
	if n, err := p.Fill(buf); err != nil || n != len(buf) {
		t.Fatalf("Fill during failure = (%d, %v)", n, err)
	}
	s0 := p.Shard(0)
	if s0.State() != StateQuarantined {
		t.Fatalf("shard 0 state = %v, want quarantined", s0.State())
	}
	if s0.LastReason() != ReasonTot {
		t.Fatalf("shard 0 reason = %v, want tot", s0.LastReason())
	}
	if p.Healthy() != 1 {
		t.Fatalf("healthy = %d after tot alarm", p.Healthy())
	}
	st := p.Stats()
	if st.Shards[0].TotAlarms != 1 || st.Shards[0].Quarantines != 1 {
		t.Fatalf("shard 0 stats: %+v", st.Shards[0])
	}

	// Recalibration: epoch 1 rebuilds the source (healthy in the
	// script), reruns the startup test and re-admits the shard.
	if healed := p.Recalibrate(context.Background()); healed != 1 {
		t.Fatalf("recalibrate healed %d shards, want 1", healed)
	}
	if s0.State() != StateHealthy || s0.Epoch() != 1 {
		t.Fatalf("shard 0 after heal: state %v epoch %d", s0.State(), s0.Epoch())
	}
	if n, err := p.Fill(buf); err != nil || n != len(buf) {
		t.Fatalf("Fill after heal = (%d, %v)", n, err)
	}
	if p.Healthy() != 2 {
		t.Fatalf("healthy = %d after heal", p.Healthy())
	}
}

// TestStartupGate verifies that a shard whose output fails the AIS31
// startup test is never admitted, while the rest of the pool serves.
func TestStartupGate(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Shards: 3,
		Seed:   13,
		Health: HealthConfig{DisableMonitor: true},
		NewSource: func(shard, epoch int, seed uint64) (RawSource, error) {
			s := &scriptSource{r: rng.New(seed), failAfter: math.MaxUint64}
			if shard == 1 && epoch == 0 {
				// 60/40 bias: passes the tot test (no long runs)
				// but flunks T1 monobit decisively.
				s.bias = 0.10
			}
			return s, nil
		},
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1 := p.Shard(1)
	if s1.State() != StateQuarantined || s1.LastReason() != ReasonStartup {
		t.Fatalf("shard 1: state %v reason %v, want quarantined/startup", s1.State(), s1.LastReason())
	}
	if p.Stats().Shards[1].StartupFailures != 1 {
		t.Fatalf("startup failures: %+v", p.Stats().Shards[1])
	}
	buf := make([]byte, 1024)
	if n, err := p.Fill(buf); err != nil || n != len(buf) {
		t.Fatalf("degraded Fill = (%d, %v)", n, err)
	}
	if healed := p.Recalibrate(context.Background()); healed != 1 {
		t.Fatalf("healed %d, want 1", healed)
	}
	if p.Healthy() != 3 {
		t.Fatalf("healthy = %d after heal", p.Healthy())
	}
}

// TestVonNeumannStarvationGuard: a stuck source behind a von Neumann
// corrector yields no gated bits at all; with the tot test disabled the
// dry-chunk cutoff must still quarantine instead of spinning forever.
func TestVonNeumannStarvationGuard(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Shards: 1,
		Post:   []PostStage{{Op: PostVonNeumann}},
		Health: HealthConfig{DisableMonitor: true, DisableTot: true, DisableStartup: true},
		NewSource: func(_, epoch int, seed uint64) (RawSource, error) {
			if epoch == 0 {
				return &scriptSource{r: rng.New(seed), failAfter: 0}, nil // stuck from bit 0
			}
			return goodScript(0, epoch, seed)
		},
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	if n, err := p.Fill(buf); err != ErrStarved || n != 0 {
		t.Fatalf("Fill on stuck VN source = (%d, %v), want (0, ErrStarved)", n, err)
	}
	if s := p.Shard(0); s.State() != StateQuarantined || s.LastReason() != ReasonTot {
		t.Fatalf("state %v reason %v", s.State(), s.LastReason())
	}
	if healed := p.Recalibrate(context.Background()); healed != 1 {
		t.Fatalf("healed %d", healed)
	}
	if n, err := p.Fill(buf); err != nil || n != len(buf) {
		t.Fatalf("Fill after heal = (%d, %v)", n, err)
	}
}

// thermalConfig builds a pool whose shards use cheap scripted bit
// sources but REAL thermal monitors (Fig. 6 counter on a simulated
// oscillator pair, chi-square bounds calibrated from the model).
func thermalConfig(shards int, seed uint64) Config {
	return Config{
		Shards:    shards,
		Seed:      seed,
		Source:    SourceConfig{Model: testModel()},
		Health:    HealthConfig{MonitorWindow: 16, MonitorEveryBits: 256},
		NewSource: goodScript,
	}
}

// TestThermalMonitorQuarantine is the paper's §V scenario on the
// serving layer: an attack suppresses the thermal jitter of shard 0's
// rings; the embedded monitor sees the small-N variance collapse and
// quarantines the shard WITHOUT stopping the pool; recalibration
// against recovered hardware re-admits it.
func TestThermalMonitorQuarantine(t *testing.T) {
	t.Parallel()
	p, err := New(thermalConfig(2, 31))
	if err != nil {
		t.Fatal(err)
	}
	if p.Healthy() != 2 {
		t.Fatalf("healthy = %d at start", p.Healthy())
	}
	// Cool/lock shard 0's rings: 90% of the thermal amplitude gone.
	// Flicker is untouched — a large-N test would still look lively;
	// only the small-N thermal monitor catches it (the paper's point).
	pair := p.Shard(0).MonitorPair()
	attack.ThermalSuppression{Factor: 0.9}.Arm(pair.Osc1)
	attack.ThermalSuppression{Factor: 0.9}.Arm(pair.Osc2)

	buf := make([]byte, 8192)
	if n, err := p.Fill(buf); err != nil || n != len(buf) {
		t.Fatalf("Fill under attack = (%d, %v)", n, err)
	}
	s0 := p.Shard(0)
	if s0.State() != StateQuarantined || s0.LastReason() != ReasonThermalLow {
		t.Fatalf("shard 0: state %v reason %v, want quarantined/thermal-low", s0.State(), s0.LastReason())
	}
	if p.Healthy() != 1 {
		t.Fatalf("healthy = %d under attack", p.Healthy())
	}

	// The attack ends (fresh epoch hardware); recalibration re-admits.
	if healed := p.Recalibrate(context.Background()); healed != 1 {
		t.Fatalf("healed %d, want 1", healed)
	}
	if s0.State() != StateHealthy {
		t.Fatalf("shard 0 after heal: %v", s0.State())
	}
	if p.Stats().Shards[0].MonitorLow == 0 {
		t.Fatal("no low-side monitor alarm recorded")
	}
}

// TestThermalMonitorPersistentAttack pins the complementary behaviour:
// while the attack persists across epochs, recalibration keeps failing
// and the shard stays out of service.
func TestThermalMonitorPersistentAttack(t *testing.T) {
	t.Parallel()
	cfg := thermalConfig(2, 37)
	cfg.NewMonitorPair = func(shard, epoch int, seed uint64) (*osc.Pair, error) {
		pair, err := osc.NewPair(cfg.Source.Model, 2e-3, osc.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		if shard == 0 {
			attack.ThermalSuppression{Factor: 0.9}.Arm(pair.Osc1)
			attack.ThermalSuppression{Factor: 0.9}.Arm(pair.Osc2)
		}
		return pair, nil
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The monitor alarms during shard 0's very first startup run.
	s0 := p.Shard(0)
	if s0.State() != StateQuarantined || s0.LastReason() != ReasonThermalLow {
		t.Fatalf("shard 0: state %v reason %v", s0.State(), s0.LastReason())
	}
	if healed := p.Recalibrate(context.Background()); healed != 0 {
		t.Fatalf("healed %d under persistent attack, want 0", healed)
	}
	if s0.State() != StateQuarantined || s0.Epoch() != 1 {
		t.Fatalf("shard 0 after failed heal: state %v epoch %d", s0.State(), s0.Epoch())
	}
	if p.Stats().Shards[0].MonitorLow < 2 {
		t.Fatalf("monitor low alarms = %d, want one per epoch", p.Stats().Shards[0].MonitorLow)
	}
}

// TestThermalMonitorHighSide: a flicker-noise burst inflates the
// measured variance past the high bound — the monitor flags the
// measurement fault.
func TestThermalMonitorHighSide(t *testing.T) {
	t.Parallel()
	cfg := thermalConfig(2, 41)
	cfg.NewMonitorPair = func(shard, epoch int, seed uint64) (*osc.Pair, error) {
		pair, err := osc.NewPair(cfg.Source.Model, 2e-3, osc.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		if shard == 0 {
			attack.FlickerBoost{Factor: 30}.Arm(pair.Osc1)
			attack.FlickerBoost{Factor: 30}.Arm(pair.Osc2)
		}
		return pair, nil
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s0 := p.Shard(0)
	if s0.State() != StateQuarantined || s0.LastReason() != ReasonThermalHigh {
		t.Fatalf("shard 0: state %v reason %v, want quarantined/thermal-high", s0.State(), s0.LastReason())
	}
	if p.Healthy() != 1 {
		t.Fatalf("healthy = %d", p.Healthy())
	}
}

// TestMonitorSamplesIndependent pins the thermal monitor's sampling:
// the s_N series a shard feeds its monitor must be serially
// uncorrelated, because the χ²(W−1) alarm bounds assume independent
// samples. Differencing overlapping counter windows gave lag-1 ≈ −0.5
// and false alarms far above the design α on healthy sources.
func TestMonitorSamplesIndependent(t *testing.T) {
	t.Parallel()
	cfg := thermalConfig(1, 61)
	cfg.Health = HealthConfig{DisableStartup: true} // default N, W, M
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Shard(0)
	sn := make([]float64, 10000)
	for i := range sn {
		sn[i] = s.monSampler.Next()
	}
	if r := stats.Autocorrelation(sn, 1)[1]; math.Abs(r) >= 0.05 {
		t.Fatalf("lag-1 autocorrelation of the monitor's s_N = %.3f, want |r| < 0.05", r)
	}
}
