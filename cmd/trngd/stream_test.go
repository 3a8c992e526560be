package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/entropyd"
	"repro/internal/obs"
	"repro/internal/sp90b"
)

// streamConfig is assessConfig with the streaming surveillance tracker
// on at the smallest legal window, monitor-only (no watermark gate),
// so serve-mode traffic fills the sliding window in a few KiB.
func streamConfig(shards int, seed uint64) entropyd.Config {
	cfg := assessConfig(shards, seed)
	cfg.Health.StreamWindow = sp90b.MinBits
	return cfg
}

// TestStreamLiveEndpointAndGauges drives traffic until every shard's
// sliding window is full, then checks /assess?live=1 (full and
// per-shard forms), the live Prometheus families, that the exposition
// stays promlint-clean with streaming on, and that the surveillance
// metrics keep moving under further traffic.
func TestStreamLiveEndpointAndGauges(t *testing.T) {
	t.Parallel()
	pool, h := startServed(t, streamConfig(2, 11), 16, false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/random?bytes=2048")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if pool.Shard(0).LiveAssessment() != nil && pool.Shard(1).LiveAssessment() != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live reports never appeared")
		}
	}

	resp, err := http.Get(ts.URL + "/assess?live=1")
	if err != nil {
		t.Fatal(err)
	}
	var ar assessResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ar.Shards) != 2 {
		t.Fatalf("live assess reports %d shards, want 2", len(ar.Shards))
	}
	for i, a := range ar.Shards {
		if a == nil {
			t.Fatalf("shard %d: no live report after traffic", i)
		}
		if a.Shard != i || a.Report.Bits != sp90b.MinBits {
			t.Fatalf("shard %d: metadata %+v", i, a)
		}
		if len(a.Report.Estimates) != 6 {
			t.Fatalf("shard %d: %d live estimates, want 6", i, len(a.Report.Estimates))
		}
		if a.Report.MinEntropy <= 0 || a.Report.MinEntropy > 1 {
			t.Fatalf("shard %d: live min-entropy %g outside (0, 1]", i, a.Report.MinEntropy)
		}
	}
	resp, err = http.Get(ts.URL + "/assess?live=1&shard=1")
	if err != nil {
		t.Fatal(err)
	}
	var one entropyd.Assessment
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if one.Shard != 1 {
		t.Fatalf("per-shard live assess returned shard %d", one.Shard)
	}

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body)
	}
	text := scrape()
	for _, want := range []string{
		`trngd_shard_live_alarms_total{shard="0"} 0`,
		`trngd_shard_live_min_entropy{shard="0",estimator="mcv"}`,
		`trngd_shard_live_min_entropy{shard="0",estimator="markov"}`,
		`trngd_shard_live_min_entropy{shard="1",estimator="lz78y"}`,
		`trngd_shard_live_min_entropy{shard="1",estimator="suite"}`,
		`trngd_shard_live_age_seconds{shard="0"}`,
		`trngd_shard_stream_cost_seconds_bucket{shard="0",le="+Inf"}`,
		`trngd_shard_stream_cost_seconds_sum{shard="1"}`,
		`trngd_shard_stream_cost_seconds_count{shard="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	if errs := obs.LintProm(text); len(errs) > 0 {
		t.Fatalf("metrics lint with streaming on: %v", errs)
	}

	// The surveillance-cost histogram keeps counting as traffic flows.
	before := pool.Shard(0).StreamCost().Count()
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/random?bytes=4096")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for pool.Shard(0).StreamCost().Count() <= before {
		if time.Now().After(deadline) {
			t.Fatalf("stream cost histogram stuck at %d samples", before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAssessLiveNotReady: with the tracker on but no raw bits pushed
// through the gate yet, /assess?live=1 serves nulls, the per-shard
// form 404s, and no live gauge is exported. Startup must be off here:
// its 20000 test bits flow through the gate and would fill the window
// before the pool ever serves (which is exactly what a deployed
// daemon wants — a live report available right after startup).
func TestAssessLiveNotReady(t *testing.T) {
	t.Parallel()
	cfg := testConfig(1, 13)
	cfg.Health.DisableStartup = true
	cfg.Health.StreamWindow = sp90b.MinBits
	pool, err := entropyd.New(cfg) // batch mode, nothing produced yet
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(pool, nil, serverConfig{queue: 4, maxBytes: 1 << 16, wait: 10 * time.Second}).handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/assess?live=1")
	if err != nil {
		t.Fatal(err)
	}
	var ar assessResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ar.Shards) != 1 || ar.Shards[0] != nil {
		t.Fatalf("expected a single null live report, got %+v", ar.Shards)
	}
	if resp, err = http.Get(ts.URL + "/assess?live=1&shard=0"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("per-shard live assess before window fill: status %d", resp.StatusCode)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "trngd_shard_live_min_entropy{") {
		t.Fatal("live min-entropy gauge exported before the window filled")
	}
}

// TestAssessAgeDroppedOnQuarantine pins the staleness-gauge fix: a
// quarantined shard is not collecting toward its next assessment, so
// trngd_shard_assess_age_seconds must drop its sample instead of
// growing without bound while the shard is benched.
func TestAssessAgeDroppedOnQuarantine(t *testing.T) {
	t.Parallel()
	cfg := assessConfig(2, 12)
	// Hold the quarantined state long enough to scrape it (the producer's
	// wait is context-aware, so shutdown is not delayed).
	cfg.Health.RecalibrateBackoff = time.Minute
	pool, h := startServed(t, cfg, 16, true)
	ts := httptest.NewServer(h)
	defer ts.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/random?bytes=2048")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		st := pool.Stats()
		if st.Shards[0].AssessRuns >= 1 && st.Shards[1].AssessRuns >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("assessments never completed")
		}
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body)
	}
	if text := scrape(); !strings.Contains(text, `trngd_shard_assess_age_seconds{shard="1"}`) {
		t.Fatalf("age gauge absent for a healthy assessed shard:\n%s", text)
	}

	resp, err := http.Post(ts.URL+"/quarantine?shard=1", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quarantine: status %d", resp.StatusCode)
	}
	for pool.Stats().Shards[1].State != "quarantined" {
		if time.Now().After(deadline) {
			t.Fatal("shard 1 never quarantined")
		}
		time.Sleep(time.Millisecond)
	}
	text := scrape()
	if strings.Contains(text, `trngd_shard_assess_age_seconds{shard="1"}`) {
		t.Fatal("age gauge still exported for a quarantined shard")
	}
	if !strings.Contains(text, `trngd_shard_assess_age_seconds{shard="0"}`) {
		t.Fatalf("age gauge lost for the healthy shard:\n%s", text)
	}
}
