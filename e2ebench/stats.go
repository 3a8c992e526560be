package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the sample-count rule for tail percentiles: a
// percentile is reported only when at least this many samples lie
// strictly beyond it, so a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice and the number of samples beyond it. ok is false
// when fewer than minBeyond samples lie beyond the quantile (or the
// slice is empty): the tail is then too thin to report.
func percentile(sorted []time.Duration, p float64) (v time.Duration, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond = n - rank
	return sorted[rank-1], beyond, beyond >= minBeyond
}

// sortedDurations returns an ascending copy of d.
func sortedDurations(d []time.Duration) []time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// median returns the median of xs (mean of the middle pair for an even
// count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meanDuration is the arithmetic mean of d (0 for an empty slice).
func meanDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}
