package entropyd

import (
	"context"
	"errors"
	"testing"
	"time"
)

// servedTapped builds and serves a tapped pool over scripted sources;
// the pool stops at test cleanup.
func servedTapped(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := p.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Stop(); cancel() })
	return p
}

// waitIdle waits until every shard of a serving tapped pool is healthy
// with a current-epoch assessment and a tap too full for another chunk
// — the state in which a demand-driven producer stops gating bits.
func waitIdle(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		idle := true
		for i := 0; i < p.NumShards(); i++ {
			s := p.Shard(i)
			if s.State() != StateHealthy || s.wantsChunk() {
				idle = false
			}
		}
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never went idle: %+v", p.Stats().Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rawBits snapshots every shard's raw-bit counter.
func rawBits(p *Pool) []uint64 {
	out := make([]uint64, p.NumShards())
	for i := range out {
		out[i] = p.Shard(i).RawBits()
	}
	return out
}

// TestDemandDrivenIdleIsFlat: once its taps are full and its epochs
// assessed, a serving tapped pool gates no raw bits at all — nothing is
// generated, tested and dropped — and no tap chunk is ever dropped.
func TestDemandDrivenIdleIsFlat(t *testing.T) {
	t.Parallel()
	cfg := drbgTestConfig(2, 41) // tap 4096 B >= one assessment sample
	p := servedTapped(t, cfg)
	waitIdle(t, p)
	// The step that completed the assessment may still be finishing
	// its chunk; one idle poll later the counters must hold still.
	time.Sleep(10 * idlePoll)
	before := rawBits(p)
	time.Sleep(300 * time.Millisecond)
	after := rawBits(p)
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("shard %d gated %d raw bits while idle", i, after[i]-before[i])
		}
		if before[i] == 0 {
			t.Errorf("shard %d never produced", i)
		}
	}
	for _, sh := range p.Stats().Shards {
		if sh.TapDropped != 0 {
			t.Errorf("shard %d dropped %d tap bytes", sh.Index, sh.TapDropped)
		}
		if sh.Buffered != 0 {
			t.Errorf("shard %d buffered %d ring bytes in a tapped pool", sh.Index, sh.Buffered)
		}
	}
}

// TestDemandDrivenRefillOnDraw: a seed draw makes room in the tap, and
// the shard's producer refills it to within one chunk of full — the
// draw, not a timer, paces the physics.
func TestDemandDrivenRefillOnDraw(t *testing.T) {
	t.Parallel()
	p := servedTapped(t, drbgTestConfig(1, 43))
	waitIdle(t, p)
	s := p.Shard(0)
	dropped := p.Stats().Shards[0].TapDropped
	ss, err := p.SeedSource(SeedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.RawBits()
	if err := ss.Seed(make([]byte, 32), 0, time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.tap.free() >= rawChunk/8 {
		if time.Now().After(deadline) {
			t.Fatalf("tap not refilled: %d bytes free", s.tap.free())
		}
		time.Sleep(time.Millisecond)
	}
	if s.RawBits() == before {
		t.Fatal("refill gated no raw bits")
	}
	if got := p.Stats().Shards[0].TapDropped; got != dropped {
		t.Fatalf("refill dropped %d tap bytes", got-dropped)
	}
}

// TestDemandDrivenSmallTap: a tap smaller than one assessment sample
// fills long before the epoch's first assessment completes; the shard
// must keep producing until it does (no deadlock), then go idle and
// serve draws.
func TestDemandDrivenSmallTap(t *testing.T) {
	t.Parallel()
	cfg := drbgTestConfig(1, 47)
	cfg.SeedTapBytes = 4 * rawChunk / 8 // fits a draw at h >= 0.16
	if cfg.SeedTapBytes >= cfg.Health.AssessBits/8 {
		t.Fatalf("tap %d B not below one sample (%d B)", cfg.SeedTapBytes, cfg.Health.AssessBits/8)
	}
	p := servedTapped(t, cfg)
	waitIdle(t, p)
	if a := p.Shard(0).LastAssessment(); a == nil || a.Epoch != 0 {
		t.Fatalf("no epoch-0 assessment: %+v", a)
	}
	ss, err := p.SeedSource(SeedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ss.Seed(make([]byte, 32), 0, 5*time.Second); err != nil {
			t.Fatalf("draw %d from a small tap: %v", i, err)
		}
	}
}

// TestDemandDrivenInjectOnIdle: an operator drill lands on an idle
// shard within a bound, and the shard heals with a fresh assessment of
// its new epoch before it can seed again.
func TestDemandDrivenInjectOnIdle(t *testing.T) {
	t.Parallel()
	j := NewTestJournal()
	cfg := drbgTestConfig(1, 53)
	cfg.Health.RecalibrateBackoff = 10 * time.Millisecond
	cfg.Sink = j
	p := servedTapped(t, cfg)
	waitIdle(t, p)
	s := p.Shard(0)
	if err := p.InjectAlarm(0); err != nil {
		t.Fatal(err)
	}
	// The journal pairs the drill's marker with the injected-reason
	// quarantine it causes.
	start := time.Now()
	for j.DetectionLatencies()["injected"] == nil {
		if time.Since(start) > 2*time.Second {
			t.Fatal("injected alarm never landed on the idle shard")
		}
		time.Sleep(100 * time.Microsecond)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		a := s.LastAssessment()
		if s.State() == StateHealthy && s.Epoch() >= 1 && a != nil && a.Epoch == s.Epoch() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never healed with a fresh assessment: %v epoch %d, %+v", s.State(), s.Epoch(), a)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadBufferedTappedFailsFast: a tapped pool serves no raw stream,
// so ReadBuffered refuses it at once instead of starving for its wait.
func TestReadBufferedTappedFailsFast(t *testing.T) {
	t.Parallel()
	p, err := New(drbgTestConfig(1, 59))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		start := time.Now()
		n, err := p.ReadBuffered(make([]byte, 32), 10*time.Second)
		if n != 0 || !errors.Is(err, ErrTapped) {
			t.Fatalf("%s: ReadBuffered = (%d, %v), want ErrTapped", when, n, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s: ReadBuffered took %v", when, d)
		}
	}
	check("batch mode")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	check("serving")
}
