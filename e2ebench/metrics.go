package main

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json (a test holds them equal).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of trngd sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{"goodput_Bps", "B/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"good_frac", "ratio"},
	{"setup_s", "s"},
	{"cpu_cores", "cores"},
	{"peak_rss_MiB", "MiB"},
}

// perLayer are the traced run's metrics: standalone layer costs timed
// in process, /metrics deltas of the booted daemon over the window,
// the ledger reconciliation and the load generator's own validity.
var perLayer = []metricDef{
	{"trng.ns_per_raw_bit", "ns"},
	{"entropyd.fill_ns_per_raw_bit", "ns"},
	{"sp90b.stream_ns_per_bit", "ns"},
	{"sp90b.assess_ms", "ms"},
	{"entropyd.new_s", "s"},
	{"entropyd.first_assess_s", "s"},
	{"drbg.ctr_ns_per_byte", "ns"},
	{"entropyd.drbgpool_generate_us.64KiB", "us"},
	{"entropyd.drbgpool_generate_us.32B", "us"},
	{"drbg.ctr_reseed_us", "us"},
	{"conditioner.us_per_seed", "us"},
	{"entropyd.seed_draw_ms", "ms"},
	{"entropyd.read_buffered_us", "us"},
	{"obs.emit_ns", "ns"},
	{"trngd.seed_starves", "count"},
	{"trngd.reseed_failures", "count"},
	{"trngd.pool_call_ms", "ms"},
	{"trngd.queue_wait_ms", "ms"},
	{"trngd.write_ms", "ms"},
	{"trngd.outside_handler_ms", "ms"},
	{"trngd.raw_bits_per_s", "1/s"},
	{"trngd.raw_bits_per_served_byte", "bits/B"},
	{"trngd.stream_ns_per_bit", "ns"},
	{"trngd.journal_events", "count"},
	{"ledger.accounted_cores", "cores"},
	{"ledger.unexplained_frac", "ratio"},
	{"client.lateness_p99_ms", "ms"},
	{"client.cpu_cores", "cores"},
	{"client.latency_samples", "count"},
	{"trace.overhead_p50_frac", "ratio"},
}
