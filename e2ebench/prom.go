package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// promSnapshot is one parsed /metrics scrape: every sample keyed by its
// series (metric name plus the label set exactly as rendered), and the
// declared TYPE of every family.
type promSnapshot struct {
	values map[string]float64
	types  map[string]string
}

// nonMonotonic lists counter families whose exported value can go
// backwards on trngd: trngd_incidents_total{class} counts incidents by
// their current class, so an upgrade moves one count between labels,
// and trngd_journal_dropped_total sums the gap of every /events page
// served, so its value depends on the readers. Their deltas mean
// nothing, so they are never diffed.
var nonMonotonic = map[string]bool{
	"trngd_incidents_total":       true,
	"trngd_journal_dropped_total": true,
}

// parseProm parses Prometheus text exposition format 0.0.4.
func parseProm(text string) (promSnapshot, error) {
	s := promSnapshot{values: map[string]float64{}, types: map[string]string{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 4 && f[1] == "TYPE" {
				s.types[f[2]] = f[3]
			}
			continue
		}
		// The value follows the last space; label values never hold one
		// on trngd, but scan from the end so a quoted space would not
		// split the series key.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return s, fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return s, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		s.values[line[:i]] = v
	}
	return s, sc.Err()
}

// family returns the metric family of a series key: the name without
// labels and without a histogram/summary suffix.
func (s promSnapshot) family(series string) string {
	name := series
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	if _, ok := s.types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if _, ok := s.types[base]; ok {
				return base
			}
		}
	}
	return name
}

// monotonic reports whether a series is a counter or histogram part
// that must never decrease.
func (s promSnapshot) monotonic(series string) bool {
	fam := s.family(series)
	if nonMonotonic[fam] {
		return false
	}
	switch s.types[fam] {
	case "counter", "histogram":
		return true
	}
	return false
}

// promDelta holds the per-series increase of every monotonic series
// between two scrapes.
type promDelta map[string]float64

// diffProm returns after − before for every monotonic series of after.
// A series that decreased is an error: it would turn a rate into
// nonsense. Series absent from before (a histogram that rendered its
// first sample mid-run) count from zero.
func diffProm(before, after promSnapshot) (promDelta, error) {
	d := promDelta{}
	for series, v1 := range after.values {
		if !after.monotonic(series) {
			continue
		}
		v0 := before.values[series]
		if v1 < v0 {
			return nil, fmt.Errorf("metrics: counter %s decreased from %g to %g", series, v0, v1)
		}
		d[series] = v1 - v0
	}
	for series := range before.values {
		if before.monotonic(series) {
			if _, ok := after.values[series]; !ok {
				return nil, fmt.Errorf("metrics: counter %s vanished between scrapes", series)
			}
		}
	}
	return d, nil
}

// sum adds the deltas of every series of the named metric (all label
// sets), e.g. the per-shard trngd_shard_raw_bits_total.
func (d promDelta) sum(name string) float64 {
	t := 0.0
	for series, v := range d {
		if series == name || strings.HasPrefix(series, name+"{") {
			t += v
		}
	}
	return t
}

// get returns one series' delta (0 when absent).
func (d promDelta) get(series string) float64 { return d[series] }
