package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/conditioner"
	"repro/internal/core"
	"repro/internal/entropyd"
)

// The CI operating point: trngd defaults except -amp 100, at which the
// sampling divider auto-scales to 64·(100/amp)² = 64 and the daemon
// serves kilobytes of raw output per second instead of bits.
const (
	opAmp     = 100
	opDivider = 64
	opShards  = 4
)

// trngdArgs are the daemon flags of a workload run.
func trngdArgs(w workload, seed uint64) []string {
	return []string{"-amp", strconv.Itoa(opAmp), "-mode", w.mode, "-seed", strconv.FormatUint(seed, 10)}
}

// poolConfig mirrors the entropyd.Config that trngd builds from its
// flag defaults at the operating point, so that in-process layer calls
// run at the configuration the booted daemon reports.
func poolConfig(mode string, seed uint64) entropyd.Config {
	cfg := entropyd.Config{
		Shards: opShards,
		Seed:   seed,
		Source: entropyd.SourceConfig{
			Kind:     entropyd.SourceERO,
			Model:    core.PaperModel().ScaleJitter(opAmp).Phase,
			Divider:  opDivider,
			Leapfrog: true,
		},
		Health: entropyd.HealthConfig{
			AssessBits:       1 << 16,
			AssessEveryBits:  1 << 20,
			AssessMinEntropy: 0.3,
			StreamWindow:     16384,
			StreamPanes:      4,
			StreamMinEntropy: 0.3,
		},
		BufBytes: 1 << 16,
	}
	if mode == "drbg" {
		cfg.SeedTapBytes = 1 << 13
	}
	return cfg
}

// drbgConfig mirrors trngd's -mode drbg expansion layer defaults.
func drbgConfig() entropyd.DRBGConfig {
	return entropyd.DRBGConfig{
		Kind:           entropyd.DRBGCTR,
		ReseedInterval: 1024,
		BlockBytes:     4096,
		SeedWait:       2 * time.Second,
		Seed:           entropyd.SeedConfig{Cond: conditioner.NewHMACSHA256(nil)},
	}
}

// verifyConfig compares the configuration the booted daemon logged at
// startup with the one the benchmark mirrors in process. Any drift
// would make the in-process layer numbers and the raw-seed Fill twin
// describe a different system.
func verifyConfig(d *daemon, w workload) error {
	want := map[string]map[string]any{
		"calibrating shards": {
			"shards": float64(opShards), "source": "ero", "mode": w.mode,
			"amp": float64(opAmp), "divider": float64(opDivider), "post": "none", "leapfrog": true,
		},
	}
	if w.mode == "drbg" {
		dc := drbgConfig()
		want["drbg mode"] = map[string]any{
			"kind": dc.Kind.String(), "cond": "hmac", // the -cond flag value

			"block_bytes": float64(dc.BlockBytes), "reseed_interval": float64(dc.ReseedInterval),
		}
	}
	for msg, fields := range want {
		// The log reader may trail the first response by a moment.
		rec := d.reported(msg)
		for i := 0; rec == nil && i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
			rec = d.reported(msg)
		}
		if rec == nil {
			return fmt.Errorf("trngd did not log %q", msg)
		}
		for k, v := range fields {
			if rec[k] != v {
				return fmt.Errorf("trngd reports %s=%v, the benchmark mirrors %v", k, rec[k], v)
			}
		}
	}
	return nil
}
