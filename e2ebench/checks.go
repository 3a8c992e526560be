package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/entropyd"
)

// chiSquareBound is the byte-frequency χ² acceptance bound: the upper
// 1e-6 quantile of χ² with 255 degrees of freedom (Wilson–Hilferty),
// so a correct generator fails it once in a million runs.
func chiSquareBound() float64 {
	const k, z = 255.0, 4.753424 // z: upper 1e-6 standard normal quantile
	a := 2 / (9 * k)
	return k * math.Pow(1-a+z*math.Sqrt(a), 3)
}

// chiSquare is the byte-frequency statistic against the uniform law.
func chiSquare(counts *[256]uint64) float64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	e := float64(n) / 256
	x := 0.0
	for _, c := range counts {
		d := float64(c) - e
		x += d * d / e
	}
	return x
}

// checkDRBG fails when any 16-byte block keyed in c repeats (its
// leading 8 bytes collide: a false alarm has probability below 1e-5 at
// 2^24 blocks) or the concatenated output fails the χ² bound. It
// returns the number of offending blocks.
func checkDRBG(c *drbgCheck) (int, error) {
	slices.Sort(c.keys)
	dups := 0
	for i := 1; i < len(c.keys); i++ {
		if c.keys[i] == c.keys[i-1] {
			dups++
		}
	}
	if dups > 0 {
		return dups, fmt.Errorf("%d repeated 16-byte blocks in %d", dups, len(c.keys))
	}
	if x, bound := chiSquare(&c.counts), chiSquareBound(); !(x <= bound) {
		return 1, fmt.Errorf("byte-frequency χ² = %.1f exceeds %.1f", x, bound)
	}
	return 0, nil
}

// rawVerifyBytes is how much of the served raw stream checkRaw
// compares with the Fill twin: 1024 responses of 32 B, about the first
// six seconds of serving at the operating point. The twin pays the
// same physics the daemon paid to produce those bytes, so comparing the
// whole stream would double the run.
const rawVerifyBytes = 32 << 10

// checkRaw compares the raw-mode responses with the Fill stream of an
// identically configured in-process pool. Every response is one
// /random call, served as one contiguous slice of the pool's single
// output stream; with equal-size requests the served bytes are
// therefore exactly the first len(bodies) equal-size chunks of that
// stream, in some order. The check requires every chunk of the
// stream's first rawVerifyBytes to be among the responses, each
// response claimed once. It returns the number of prefix chunks no
// response matched.
func checkRaw(bodies [][]byte, seed uint64) (int, error) {
	if len(bodies) == 0 {
		return 0, nil
	}
	size := len(bodies[0])
	n := min(len(bodies), rawVerifyBytes/size)
	cfg := poolConfig("raw", seed)
	// Every monitor on the serving path is passive until it alarms: the
	// tot test, the thermal monitor, the streaming tracker and the batch
	// assessment read the raw stream but never change it (the daemon's
	// tests pin this), and the run already requires zero quarantines.
	// So the twin runs the physics alone.
	cfg.Health.DisableTot = true
	cfg.Health.DisableMonitor = true
	cfg.Health.StreamWindow = 0
	cfg.Health.DisableAssess = true
	twin, err := entropyd.New(cfg)
	if err != nil {
		return n, fmt.Errorf("raw twin: %w", err)
	}
	want := make([]byte, n*size)
	if got, err := twin.Fill(want); err != nil || got != len(want) {
		return n, fmt.Errorf("raw twin Fill = (%d, %v)", got, err)
	}
	served := make(map[string]int, len(bodies))
	for _, b := range bodies {
		served[string(b)]++
	}
	bad := 0
	for off := 0; off < len(want); off += size {
		chunk := string(want[off : off+size])
		if served[chunk] == 0 {
			bad++
			continue
		}
		served[chunk]--
	}
	if bad > 0 {
		return bad, fmt.Errorf("%d of the first %d raw chunks of the Fill stream were never served", bad, n)
	}
	return 0, nil
}
