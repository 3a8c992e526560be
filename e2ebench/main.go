// Command e2ebench is the repository's end-to-end benchmark. It boots
// cmd/trngd as a child process at the CI operating point (defaults
// except -amp 100), drives one workload against it from this process
// over at most two connections, checks every output, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// An untraced run (-trace 0) reports the end-to-end metrics: goodput,
// latency p50/p99 (p99 only with at least ten samples beyond it),
// good_frac, set-up time (median of several boots), daemon CPU cores
// and peak RSS. A traced run (-trace 1) reports the per-layer metrics:
// it records client spans per request in alternating one-second
// segments, diffs /metrics snapshots around the window, then times each
// layer's public functions in process at the daemon's reported
// configuration and reconciles them into a CPU ledger. Spans are
// written to <out>/spans-<workload>-seed<seed>.jsonl.
//
// Usage (from the repository root; e2ebench/run.sh builds both
// binaries first):
//
//	e2ebench -workload drbg-sparse|raw-seed -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

const (
	// runLimit bounds a whole run; the watchdog kills the daemon and
	// exits non-zero past it.
	runLimit = 170 * time.Second
	// warmup is the unmeasured load between the daemon's first answer
	// and the measured window.
	warmup = 500 * time.Millisecond
	// setupBoots is how many times an untraced run boots the daemon;
	// setup_s is the median, and the last boot serves the workload.
	setupBoots = 3
)

type options struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	setups  int
	bin     string
	out     string
	addr    string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final JSON line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	name := flag.String("workload", "", "workload: drbg-sparse or raw-seed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (trngd -seed and the open-loop schedule)")
	flag.Float64Var(&o.seconds, "seconds", 40, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.bin, "trngd", ".bench_build/trngd", "trngd binary")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the span dump")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:18431", "daemon listen address")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -workload drbg-sparse|raw-seed -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	o.w, o.trace, o.setups = w, *trace == 1, setupBoots
	if o.trace {
		o.setups = 1 // setup_s is an untraced metric
	}

	// Every exit path stops the child: the watchdog, a signal, an error.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v\n", runLimit)
		killAll()
		os.Exit(1)
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()

	out, err := run(o)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := out.Metrics[d.name]; ok {
				fmt.Printf("%-12s %-38s %14.6g %s\n", w.name, d.name, m.Value, m.Unit)
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// window is what one measured load window yields.
type window struct {
	res      loadResult
	delta    promDelta
	wallS    float64 // daemon CPU window
	goodS    float64 // window start to last completion
	cpuCores float64
	client   float64 // benchmark process cores
	rssMiB   float64
	problems []string
	bad      int // responses failing an end-of-run output check
}

func run(o options) (outcome, error) {
	ctx := context.Background()
	if err := preflight(o.addr); err != nil {
		return outcome{}, err
	}
	probe := &http.Client{Timeout: 10 * time.Second}
	var setup []float64
	var d *daemon
	var first []byte
	for i := 0; i < o.setups; i++ {
		if d != nil {
			d.kill()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(o.bin, o.addr, trngdArgs(o.w, o.seed)); err != nil {
			return outcome{}, err
		}
		rctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		first, err = d.waitReady(rctx, probe)
		cancel()
		if err != nil {
			return outcome{}, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer d.kill()
	if err := verifyConfig(d, o.w); err != nil {
		return outcome{}, err
	}
	probe.CloseIdleConnections()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	win, err := measure(ctx, o, d, probe, first, tr)
	if err != nil {
		return outcome{}, err
	}
	for _, p := range win.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	out := outcome{
		Correct:   len(win.problems) == 0,
		Attempted: win.res.attempted,
		Failed:    win.res.failed + win.bad,
		Metrics:   map[string]metric{},
	}
	if win.res.failed+win.bad > win.res.attempted {
		out.Failed = win.res.attempted
	}
	lat := sortedDurations(win.res.latencies)
	p50, _, ok50 := percentile(lat, 0.50)
	p99, beyond, ok99 := percentile(lat, 0.99)
	fmt.Printf("%-12s %-38s %14d samples, %d beyond p99\n", o.w.name, "latency", len(lat), beyond)
	late := sortedDurations(win.res.lateness)
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
		v, _, _ := percentile(lat, q)
		lv, _, _ := percentile(late, q)
		fmt.Fprintf(os.Stderr, "e2ebench: q%.2f latency %.3f ms, lateness %.3f ms\n", q, ms(v), ms(lv))
	}
	if !o.trace {
		if !ok50 || !ok99 {
			return outcome{}, fmt.Errorf("%d latency samples leave %d beyond p99 (need %d): lengthen the run", len(lat), beyond, minBeyond)
		}
		set := func(name string, v float64) { out.Metrics[name] = metric{v, unitOf(name)} }
		set("goodput_Bps", float64(win.res.goodBytes)/win.goodS)
		set("latency_p50_ms", ms(p50))
		set("latency_p99_ms", ms(p99))
		set("good_frac", 1-float64(out.Failed)/float64(out.Attempted))
		set("setup_s", median(setup))
		set("cpu_cores", win.cpuCores)
		set("peak_rss_MiB", win.rssMiB)
		return out, finite(out.Metrics)
	}
	layers, err := measureLayers(tr, o.w.mode, o.seed)
	if err != nil {
		return outcome{}, fmt.Errorf("layer pass: %w", err)
	}
	for name, v := range layers {
		out.Metrics[name] = metric{v, unitOf(name)}
	}
	for name, v := range daemonLayers(win, o.w.mode) {
		out.Metrics[name] = metric{v, unitOf(name)}
	}
	terms := ledgerTerms(win.delta, layers, o.w.mode)
	accounted, unexplained := reconcile(terms, win.wallS, win.cpuCores)
	for _, t := range terms {
		fmt.Fprintf(os.Stderr, "ledger %-30s %14.0f units × %12.1f ns = %.4f cores\n", t.name, t.units, t.costNs, t.cores(win.wallS))
	}
	fmt.Fprintf(os.Stderr, "ledger accounted %.4f of %.4f measured cores\n", accounted, win.cpuCores)
	out.Metrics["ledger.accounted_cores"] = metric{accounted, "cores"}
	out.Metrics["ledger.unexplained_frac"] = metric{unexplained, "ratio"}
	lp99, _, _ := percentile(late, 0.99)
	out.Metrics["client.lateness_p99_ms"] = metric{ms(lp99), "ms"}
	out.Metrics["client.cpu_cores"] = metric{win.client, "cores"}
	out.Metrics["client.latency_samples"] = metric{float64(len(lat)), "count"}
	out.Metrics["trace.overhead_p50_frac"] = metric{traceOverhead(win.res.reqs, win.res.from), "ratio"}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.w.name, o.seed))
	if err := tr.write(path); err != nil {
		return outcome{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", len(tr.spans), path)
	for _, d := range perLayer {
		if _, ok := out.Metrics[d.name]; !ok {
			return outcome{}, fmt.Errorf("traced run produced no %s", d.name)
		}
	}
	return out, finite(out.Metrics)
}

// finite rejects a metric that is NaN or infinite: a counter that did
// not move where the window needed it to.
func finite(ms map[string]metric) error {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// measure drives the workload against d through the warmup and the
// measured window, snapshots the daemon around the window, checks the
// daemon's health and every output, and stops the daemon.
func measure(ctx context.Context, o options, d *daemon, probe *http.Client, first []byte, tr *tracer) (window, error) {
	var win window
	start := time.Now()
	t0 := start.Add(warmup)
	stop := t0.Add(time.Duration(o.seconds * float64(time.Second)))
	l := newLoad(o.w, d.base, start, stop, o.seed)
	l.conns[0].check.add(first) // the readiness probe consumed stream bytes too
	if tr != nil {
		l.traced = func(due time.Time) bool {
			return !due.Before(t0) && int(due.Sub(t0)/time.Second)%2 == 0
		}
		l.tracer = tr
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.run(ctx)
	}()
	time.Sleep(time.Until(t0))
	m0, err := d.scrape(ctx, probe)
	cpu0, err2 := d.cpuSeconds()
	self0 := selfCPU()
	w0 := time.Now()
	<-done
	if err = errors.Join(err, err2); err != nil {
		return win, err
	}
	m1, err := d.scrape(ctx, probe)
	cpu1, err2 := d.cpuSeconds()
	self1 := selfCPU()
	w1 := time.Now()
	if err = errors.Join(err, err2); err != nil {
		return win, err
	}
	if win.delta, err = diffProm(m0, m1); err != nil {
		return win, err
	}
	win.wallS = w1.Sub(w0).Seconds()
	win.cpuCores = (cpu1 - cpu0) / win.wallS
	win.client = (self1 - self0) / win.wallS
	if _, err := d.health(ctx, probe); err != nil {
		win.problems = append(win.problems, err.Error())
	}
	if win.rssMiB, err = d.peakRSSMiB(); err != nil {
		return win, err
	}
	d.kill()

	win.res = l.result(t0)
	win.goodS = win.res.lastEnd.Sub(t0).Seconds()
	if win.res.failed > 0 {
		win.problems = append(win.problems, fmt.Sprintf("%d failed requests, first: %s", win.res.failed, win.res.fails[0]))
	}
	var bad int
	c0 := time.Now()
	switch c := win.res.check.(type) {
	case *drbgCheck:
		bad, err = checkDRBG(c)
	case *rawCheck:
		bad, err = checkRaw(c.bodies, o.seed)
	}
	fmt.Fprintf(os.Stderr, "e2ebench: output checks took %.1f s\n", time.Since(c0).Seconds())
	if err != nil {
		win.bad = bad
		win.problems = append(win.problems, err.Error())
	}
	return win, nil
}

// daemonLayers derives the per-layer numbers the booted daemon's
// /metrics deltas give over the window.
func daemonLayers(win window, mode string) map[string]float64 {
	d := win.delta
	phase := func(p string) float64 {
		key := fmt.Sprintf("trngd_request_phase_duration_seconds_%%s{mode=%q,phase=%q}", mode, p)
		return meanMs(d.get(fmt.Sprintf(key, "sum")), d.get(fmt.Sprintf(key, "count")))
	}
	server := meanMs(d.get(fmt.Sprintf("trngd_request_duration_seconds_sum{mode=%q}", mode)),
		d.get(fmt.Sprintf("trngd_request_duration_seconds_count{mode=%q}", mode)))
	rawBits := d.sum("trngd_shard_raw_bits_total")
	return map[string]float64{
		"trngd.seed_starves":             d.get("trngd_drbg_seed_starves_total"),
		"trngd.reseed_failures":          d.get("trngd_drbg_reseed_failures_total"),
		"trngd.pool_call_ms":             phase("lane-generate"),
		"trngd.queue_wait_ms":            phase("queue-wait"),
		"trngd.write_ms":                 phase("response-write"),
		"trngd.outside_handler_ms":       ms(meanDuration(win.res.sendLatencies)) - server,
		"trngd.raw_bits_per_s":           rawBits / win.wallS,
		"trngd.raw_bits_per_served_byte": rawBits / d.get("trngd_bytes_served_total"),
		// The stream-cost histogram sums one per-bit mean per chunk; the
		// chunks are equal, so sum/count is the per-bit mean.
		"trngd.stream_ns_per_bit": 1e9 * d.sum("trngd_shard_stream_cost_seconds_sum") / d.sum("trngd_shard_stream_cost_seconds_count"),
		"trngd.journal_events":    d.get("trngd_journal_events_total"),
	}
}

// meanMs is sum/count of a seconds histogram in milliseconds.
func meanMs(sumS, count float64) float64 {
	if count == 0 {
		return 0
	}
	return 1e3 * sumS / count
}

// traceOverhead compares the median latency of the traced one-second
// segments with the untraced ones.
func traceOverhead(reqs []request, from time.Time) float64 {
	var on, off []time.Duration
	for _, r := range reqs {
		if !r.ok || r.due.Before(from) {
			continue
		}
		if r.traced {
			on = append(on, r.latency())
		} else {
			off = append(off, r.latency())
		}
	}
	pOn, _, _ := percentile(sortedDurations(on), 0.5)
	pOff, _, _ := percentile(sortedDurations(off), 0.5)
	if pOff == 0 {
		return math.NaN()
	}
	return float64(pOn)/float64(pOff) - 1
}

// selfCPU is this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// unitOf returns the declared unit of a metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
