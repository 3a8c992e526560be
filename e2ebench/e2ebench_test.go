package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileSampleCountRule(t *testing.T) {
	ramp := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(i+1) * time.Millisecond
		}
		return d
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   time.Duration
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990 * time.Millisecond, 10, true},
		{999, 0.99, 990 * time.Millisecond, 9, false}, // rank ceil(989.01) = 990
		{2000, 0.99, 1980 * time.Millisecond, 20, true},
		{100, 0.5, 50 * time.Millisecond, 50, true},
		{5, 0.5, 3 * time.Millisecond, 2, false},
	} {
		v, beyond, ok := percentile(ramp(tc.n), tc.p)
		if v != tc.want || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("percentile(n=%d, p=%g) = (%v, %d, %v), want (%v, %d, %v)",
				tc.n, tc.p, v, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

const scrape0 = `# HELP trngd_requests_total /random requests received.
# TYPE trngd_requests_total counter
trngd_requests_total 100
# TYPE trngd_shard_raw_bits_total counter
trngd_shard_raw_bits_total{shard="0"} 1000
trngd_shard_raw_bits_total{shard="1"} 2000
# TYPE trngd_heap_alloc_bytes gauge
trngd_heap_alloc_bytes 5000
# TYPE trngd_incidents_total counter
trngd_incidents_total{class="single-shard"} 3
# TYPE trngd_request_duration_seconds histogram
trngd_request_duration_seconds_bucket{mode="drbg",le="0.001"} 10
trngd_request_duration_seconds_bucket{mode="drbg",le="+Inf"} 100
trngd_request_duration_seconds_sum{mode="drbg"} 1.5
trngd_request_duration_seconds_count{mode="drbg"} 100
`

func mustParse(t *testing.T, text string) promSnapshot {
	t.Helper()
	s, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPromDelta(t *testing.T) {
	after := strings.NewReplacer(
		"trngd_requests_total 100", "trngd_requests_total 160",
		`{shard="1"} 2000`, `{shard="1"} 2600`,
		"trngd_heap_alloc_bytes 5000", "trngd_heap_alloc_bytes 10", // gauges may fall
		`{class="single-shard"} 3`, `{class="single-shard"} 2`, // not monotonic on trngd
		`_sum{mode="drbg"} 1.5`, `_sum{mode="drbg"} 2.5`,
		`_count{mode="drbg"} 100`, `_count{mode="drbg"} 160`,
	).Replace(scrape0)
	d, err := diffProm(mustParse(t, scrape0), mustParse(t, after))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"trngd_requests_total":                                          60,
		`trngd_request_duration_seconds_sum{mode="drbg"}`:               1,
		`trngd_request_duration_seconds_count{mode="drbg"}`:             60,
		`trngd_request_duration_seconds_bucket{mode="drbg",le="0.001"}`: 0,
	} {
		if got := d.get(series); got != want {
			t.Errorf("delta %s = %g, want %g", series, got, want)
		}
	}
	if got := d.sum("trngd_shard_raw_bits_total"); got != 600 {
		t.Errorf("raw bits delta = %g, want 600", got)
	}
	for _, series := range []string{"trngd_heap_alloc_bytes", `trngd_incidents_total{class="single-shard"}`} {
		if _, ok := d[series]; ok {
			t.Errorf("%s was diffed", series)
		}
	}
}

func TestPromDeltaRejectsDecrease(t *testing.T) {
	before := mustParse(t, scrape0)
	for _, repl := range [][2]string{
		{"trngd_requests_total 100", "trngd_requests_total 99"},
		{`le="+Inf"} 100`, `le="+Inf"} 90`},
		{"trngd_shard_raw_bits_total{shard=\"0\"} 1000\n", ""}, // a counter series that vanished
	} {
		after := mustParse(t, strings.Replace(scrape0, repl[0], repl[1], 1))
		if _, err := diffProm(before, after); err == nil {
			t.Errorf("diffProm accepted %q -> %q", repl[0], repl[1])
		}
	}
}

func TestSchedule(t *testing.T) {
	const rate = 50.0
	span := 20 * time.Second
	a := schedule(7, rate, span)
	if len(a) != 1000 {
		t.Fatalf("%d arrivals, want 1000", len(a))
	}
	if !slices.Equal(a, schedule(7, rate, span)) {
		t.Fatal("same seed gave a different schedule")
	}
	if slices.Equal(a, schedule(8, rate, span)) {
		t.Fatal("different seeds gave the same schedule")
	}
	slot := time.Duration(float64(time.Second) / rate)
	for k, d := range a {
		if d < time.Duration(k)*slot || d >= time.Duration(k+1)*slot+1 {
			t.Fatalf("arrival %d at %v outside its slot [%v, %v)", k, d, time.Duration(k)*slot, time.Duration(k+1)*slot)
		}
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= span {
		t.Fatal("arrivals unsorted or past the span")
	}
}

func TestLedgerArithmetic(t *testing.T) {
	before := mustParse(t, scrape0+`# TYPE trngd_drbg_generates_total counter
trngd_drbg_generates_total 0
# TYPE trngd_drbg_reseeds_total counter
trngd_drbg_reseeds_total 0
# TYPE trngd_drbg_seed_draws_total counter
trngd_drbg_seed_draws_total 0
# TYPE trngd_journal_events_total counter
trngd_journal_events_total 0
# TYPE trngd_shard_assess_runs_total counter
trngd_shard_assess_runs_total{shard="0"} 0
`)
	after := mustParse(t, strings.NewReplacer(
		"trngd_requests_total 100", "trngd_requests_total 1100", // 1000 requests
		`{shard="0"} 1000`, `{shard="0"} 11000`, // 10000 + 40000 raw bits
		`{shard="1"} 2000`, `{shard="1"} 42000`,
	).Replace(scrape0)+`# TYPE trngd_drbg_generates_total counter
trngd_drbg_generates_total 2000
# TYPE trngd_drbg_reseeds_total counter
trngd_drbg_reseeds_total 4
# TYPE trngd_drbg_seed_draws_total counter
trngd_drbg_seed_draws_total 8
# TYPE trngd_journal_events_total counter
trngd_journal_events_total 12
# TYPE trngd_shard_assess_runs_total counter
trngd_shard_assess_runs_total{shard="0"} 2
`)
	d, err := diffProm(before, after)
	if err != nil {
		t.Fatal(err)
	}
	layer := map[string]float64{
		"entropyd.fill_ns_per_raw_bit":      30000, // 50000 bits -> 1.5 s
		"sp90b.stream_ns_per_bit":           4000,  // 50000 bits -> 0.2 s
		"sp90b.assess_ms":                   50,    // 2 runs -> 0.1 s
		"drbg.ctr_ns_per_byte":              2,     // 2000 x 4096 B -> 0.016384 s
		"drbg.ctr_reseed_us":                500,   // 4 -> 0.002 s
		"conditioner.us_per_seed":           1000,  // 8 -> 0.008 s
		"entropyd.drbgpool_generate_us.32B": 100,   // 1000 requests -> 0.1 s
		"obs.emit_ns":                       1e6,   // 12 events -> 0.012 s
	}
	const wallS = 2.0
	wantBusy := 1.5 + 0.2 + 0.1 + 0.016384 + 0.002 + 0.008 + 0.1 + 0.012
	accounted, unexplained := reconcile(ledgerTerms(d, layer, "drbg"), wallS, 1.25)
	if math.Abs(accounted-wantBusy/wallS) > 1e-12 {
		t.Errorf("accounted = %.12f cores, want %.12f", accounted, wantBusy/wallS)
	}
	if want := 1 - wantBusy/wallS/1.25; math.Abs(unexplained-want) > 1e-12 {
		t.Errorf("unexplained = %.12f, want %.12f", unexplained, want)
	}
	// Raw mode has no per-request term.
	accRaw, _ := reconcile(ledgerTerms(d, layer, "raw"), wallS, 1.25)
	if math.Abs(accounted-accRaw-0.1/wallS) > 1e-12 {
		t.Errorf("raw ledger differs by %.12f cores, want the 0.05-core request term", accounted-accRaw)
	}
}

func TestChecks(t *testing.T) {
	if b := chiSquareBound(); b < 350 || b > 380 {
		t.Fatalf("χ² bound %g outside the 255-dof 1e-6 tail", b)
	}
	var c drbgCheck
	body := make([]byte, 1<<14)
	rand.NewChaCha8([32]byte{1}).Read(body)
	c.add(body)
	if _, err := checkDRBG(&c); err != nil {
		t.Fatalf("distinct uniform blocks failed: %v", err)
	}
	c.add(body[:16]) // one repeated block
	if bad, err := checkDRBG(&c); err == nil || bad != 1 {
		t.Fatalf("repeated block: bad=%d err=%v", bad, err)
	}
	var skew drbgCheck
	skew.add(append(body, make([]byte, 4096)...))
	if _, err := checkDRBG(&skew); err == nil {
		t.Fatal("zero-heavy output passed the χ² bound")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark mirrors.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	var b benchmarkJSON
	readJSON(t, "../BENCHMARK.json", &b)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(names), len(workloads))
	}
	for _, list := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(list.json) != len(list.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(list.json), len(list.code))
		}
		for i, m := range list.json {
			if m.Name != list.code[i].name || m.Unit != list.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, list.code[i].name, list.code[i].unit)
			}
		}
	}
}

func TestPredictionsCoverEveryLayerMetric(t *testing.T) {
	var p struct {
		Predictions []struct {
			Layer string `json:"layer"`
			Moves []struct {
				Metric string   `json:"metric"`
				On     []string `json:"on"`
			} `json:"moves"`
			NoMove []struct {
				Metric string   `json:"metric"`
				On     []string `json:"on"`
			} `json:"no_move"`
		} `json:"predictions"`
	}
	readJSON(t, "predictions.json", &p)
	seen := map[string]bool{}
	for _, row := range p.Predictions {
		if unitOf(row.Layer) == "" {
			t.Errorf("prediction for unknown layer metric %s", row.Layer)
		}
		seen[row.Layer] = true
		for _, m := range append(row.Moves, row.NoMove...) {
			if unitOf(m.Metric) == "" || !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.name == m.Metric }) {
				t.Errorf("%s predicts %s, not an end-to-end metric", row.Layer, m.Metric)
			}
			for _, w := range m.On {
				if _, ok := findWorkload(w); !ok {
					t.Errorf("%s predicts on unknown workload %s", row.Layer, w)
				}
			}
		}
	}
	for _, d := range perLayer {
		if !seen[d.name] {
			t.Errorf("no prediction for %s", d.name)
		}
	}
}
