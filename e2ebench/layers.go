package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/conditioner"
	"repro/internal/core"
	"repro/internal/drbg"
	"repro/internal/entropyd"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/sp90b"
	"repro/internal/sp90b/stream"
	"repro/internal/trng"
)

// layerBudget bounds each repeated layer measurement.
const layerBudget = 500 * time.Millisecond

// repeat calls f in batches until budget elapses (at least minBatches
// times) and returns the median per-call duration over the batches.
func repeat(budget time.Duration, minBatches, perBatch int, f func()) time.Duration {
	var per []float64
	start := time.Now()
	for len(per) < minBatches || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/float64(perBatch))
	}
	return time.Duration(median(per))
}

// layerPass times every layer's public functions in process at the
// operating point of the booted daemon. The pool whose mode matches
// the workload supplies the set-up metrics.
type layerPass struct {
	tr   *tracer
	mode string
	seed uint64
	m    map[string]float64
}

func measureLayers(tr *tracer, mode string, seed uint64) (map[string]float64, error) {
	lp := &layerPass{tr: tr, mode: mode, seed: seed, m: map[string]float64{}}
	root, start := tr.newID(), time.Now()
	defer func() { tr.record(root, 0, 0, "layers", start, time.Now()) }()
	bits, err := lp.physics(root)
	if err != nil {
		return nil, err
	}
	lp.surveillance(root, bits)
	if err := lp.fill(root); err != nil {
		return nil, err
	}
	// Set-up costs come from the pool in the workload's own mode; the
	// other mode's pool serves the layers only it exercises.
	drbgPool, err := lp.newPool(root, "drbg", mode == "drbg")
	if err != nil {
		return nil, err
	}
	if err := lp.drbgLayers(root, drbgPool); err != nil {
		return nil, err
	}
	rawPool, err := lp.newPool(root, "raw", mode == "raw")
	if err != nil {
		return nil, err
	}
	if err := lp.readBuffered(root, rawPool); err != nil {
		return nil, err
	}
	lp.emit(root)
	return lp.m, nil
}

// physics times trng.Generator.Bits and returns the 65536 raw bits it
// drew, which feed the surveillance layers.
func (lp *layerPass) physics(root uint64) ([]byte, error) {
	g, err := trng.New(trng.Config{
		Model:    core.PaperModel().ScaleJitter(opAmp).Phase,
		Divider:  opDivider,
		Seed:     lp.seed,
		Leapfrog: true,
	})
	if err != nil {
		return nil, fmt.Errorf("trng: %w", err)
	}
	const batch = 4096
	bits := make([]byte, 0, 1<<16)
	var perBit []float64
	lp.tr.timed("layer.trng", root, func() {
		for len(bits) < 1<<16 {
			t0 := time.Now()
			b := g.Bits(batch)
			perBit = append(perBit, float64(time.Since(t0))/batch)
			bits = append(bits, b...)
		}
	})
	lp.m["trng.ns_per_raw_bit"] = median(perBit)
	return bits, nil
}

// surveillance times the batch assessment and the streaming tracker on
// the physics bits.
func (lp *layerPass) surveillance(root uint64, bits []byte) {
	var assess []float64
	lp.tr.timed("layer.sp90b.assess", root, func() {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			_, _ = sp90b.Assess(bits) // 65536 bits >= MinBits: cannot fail
			assess = append(assess, ms(time.Since(t0)))
		}
	})
	lp.m["sp90b.assess_ms"] = median(assess)

	t, _ := stream.New(stream.Config{Window: 16384, Panes: 4}) // valid constant config
	const chunk = 512                                          // entropyd's raw chunk
	var perBit []float64
	lp.tr.timed("layer.sp90b.stream", root, func() {
		for pass := 0; pass < 2; pass++ { // the first pass fills the window
			for off := 0; off+chunk <= len(bits); off += chunk {
				t0 := time.Now()
				t.PushBits(bits[off : off+chunk])
				if pass == 1 {
					perBit = append(perBit, float64(time.Since(t0))/chunk)
				}
			}
		}
	})
	lp.m["sp90b.stream_ns_per_bit"] = median(perBit)
}

// fill times Pool.Fill with surveillance off on one worker: physics
// plus the tot/monitor gate plus byte packing, per raw bit.
func (lp *layerPass) fill(root uint64) error {
	cfg := poolConfig("raw", lp.seed)
	cfg.Health.StreamWindow = 0
	cfg.Health.DisableAssess = true
	cfg.Jobs = 1
	p, err := entropyd.New(cfg)
	if err != nil {
		return fmt.Errorf("fill pool: %w", err)
	}
	rawBits := func() uint64 {
		var n uint64
		for _, s := range p.Stats().Shards {
			n += s.RawBits
		}
		return n
	}
	buf := make([]byte, 2048)
	var perBit []float64
	var ferr error
	lp.tr.timed("layer.entropyd.fill", root, func() {
		start := time.Now()
		for len(perBit) < 3 || time.Since(start) < layerBudget {
			b0, t0 := rawBits(), time.Now()
			if n, err := p.Fill(buf); err != nil || n != len(buf) {
				ferr = fmt.Errorf("Fill = (%d, %v)", n, err)
				return
			}
			perBit = append(perBit, float64(time.Since(t0))/float64(rawBits()-b0))
		}
	})
	lp.m["entropyd.fill_ns_per_raw_bit"] = median(perBit)
	return ferr
}

// newPool builds a pool in the given mode at the daemon's
// configuration and fills until every shard holds its first
// assessment; when setup is set it records the set-up metrics.
func (lp *layerPass) newPool(root uint64, mode string, setup bool) (*entropyd.Pool, error) {
	var p *entropyd.Pool
	var err error
	newDur := lp.tr.timed("layer.entropyd.new."+mode, root, func() {
		p, err = entropyd.New(poolConfig(mode, lp.seed))
	})
	if err != nil {
		return nil, fmt.Errorf("%s pool: %w", mode, err)
	}
	buf := make([]byte, 1024)
	assessed := func() bool {
		for i := 0; i < p.NumShards(); i++ {
			if p.Shard(i).LastAssessment() == nil {
				return false
			}
		}
		return true
	}
	assessDur := lp.tr.timed("layer.entropyd.first_assess."+mode, root, func() {
		for !assessed() && err == nil {
			_, err = p.Fill(buf)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s pool Fill: %w", mode, err)
	}
	if setup {
		lp.m["entropyd.new_s"] = newDur.Seconds()
		lp.m["entropyd.first_assess_s"] = (newDur + assessDur).Seconds()
	}
	return p, nil
}

// drbgLayers times the seed path and the expansion layer on an
// assessed, tapped pool in batch mode.
func (lp *layerPass) drbgLayers(root uint64, p *entropyd.Pool) error {
	dc := drbgConfig()
	// Conditioning input for one 256-bit seed block at the pool's
	// weakest assessed entropy, exactly as SeedSource sizes a draw.
	h := 1.0
	for i := 0; i < p.NumShards(); i++ {
		h = math.Min(h, p.Shard(i).LastAssessment().Report.MinEntropy)
	}
	nIn, err := conditioner.RequiredInputBits(dc.Seed.Cond.OutputBits(), 64, h)
	if err != nil {
		return fmt.Errorf("conditioner sizing: %w", err)
	}
	in := make([]byte, (nIn+7)/8)
	lp.tr.timed("layer.conditioner", root, func() {
		lp.m["conditioner.us_per_seed"] = us(repeat(layerBudget/2, 3, 64, func() { dc.Seed.Cond.Condition(in) }))
	})

	src, err := p.SeedSource(dc.Seed)
	if err != nil {
		return err
	}
	seed := make([]byte, 48) // CTR_DRBG-AES-256 seedlen
	var draws []float64
	var serr error
	lp.tr.timed("layer.entropyd.seed_draw", root, func() {
		for i := 0; i < 16 && serr == nil; i++ {
			t0 := time.Now()
			serr = src.Seed(seed, i%p.NumShards(), dc.SeedWait)
			draws = append(draws, ms(time.Since(t0)))
		}
	})
	if serr != nil {
		return fmt.Errorf("seed draw: %w", serr)
	}
	lp.m["entropyd.seed_draw_ms"] = median(draws)

	r := rand.New(rand.NewPCG(lp.seed, 1))
	for i := range seed {
		seed[i] = byte(r.Uint32())
	}
	ctr, err := drbg.NewCTR(seed, nil, drbg.CTRConfig{ReseedInterval: 1 << 40})
	if err != nil {
		return err
	}
	block := make([]byte, dc.BlockBytes)
	lp.tr.timed("layer.drbg.ctr", root, func() {
		gen := repeat(layerBudget/2, 3, 64, func() { _ = ctr.Generate(block, nil) })
		lp.m["drbg.ctr_ns_per_byte"] = float64(gen) / float64(len(block))
		lp.m["drbg.ctr_reseed_us"] = us(repeat(layerBudget/2, 3, 256, func() { _ = ctr.Reseed(seed, nil) }))
	})

	dp, err := p.DRBGPool(dc)
	if err != nil {
		return err
	}
	for _, size := range []int{64 << 10, 32} {
		buf := make([]byte, size)
		var calls []float64
		var gerr error
		lp.tr.timed(fmt.Sprintf("layer.entropyd.drbgpool_generate.%d", size), root, func() {
			start := time.Now()
			for len(calls) < 1500 && (len(calls) < 10 || time.Since(start) < layerBudget) {
				t0 := time.Now()
				if n, err := dp.Generate(buf, false, dc.SeedWait); err != nil || n != size {
					gerr = fmt.Errorf("DRBGPool.Generate(%d) = (%d, %v)", size, n, err)
					return
				}
				calls = append(calls, float64(time.Since(t0)))
			}
		})
		if gerr != nil {
			return gerr
		}
		name := "entropyd.drbgpool_generate_us.64KiB"
		if size == 32 {
			name = "entropyd.drbgpool_generate_us.32B"
		}
		lp.m[name] = median(calls) / 1e3
	}
	return nil
}

// readBuffered serves the raw pool and times 32-byte ReadBuffered
// calls from two consumers, like the raw-seed workload's connections.
func (lp *layerPass) readBuffered(root uint64, p *entropyd.Pool) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Serve(ctx); err != nil {
		return err
	}
	defer p.Stop()
	var mu sync.Mutex
	var calls []float64
	var rerr error
	lp.tr.timed("layer.entropyd.read_buffered", root, func() {
		var wg sync.WaitGroup
		stop := time.Now().Add(4 * layerBudget)
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 32)
				for time.Now().Before(stop) {
					t0 := time.Now()
					n, err := p.ReadBuffered(buf, 5*time.Second)
					d := float64(time.Since(t0))
					mu.Lock()
					if err != nil || n != len(buf) {
						rerr = fmt.Errorf("ReadBuffered = (%d, %v)", n, err)
					}
					calls = append(calls, d)
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
	})
	lp.m["entropyd.read_buffered_us"] = median(calls) / 1e3
	return rerr
}

// emit times one event through the daemon's journal + incident engine
// fan-out.
func (lp *layerPass) emit(root uint64) {
	sink := obs.Multi(obs.NewJournal(obs.DefaultCapacity), incident.New(incident.DefaultWindow))
	i := 0
	lp.tr.timed("layer.obs.emit", root, func() {
		d := repeat(layerBudget/2, 3, 4096, func() {
			sink.Emit(obs.Event{Type: obs.TypeSeedDraw, Shard: i % opShards, Lane: obs.Any, Value: 256})
			i++
		})
		lp.m["obs.emit_ns"] = float64(d)
	})
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
