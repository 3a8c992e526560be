package main

// ledgerTerm is one line of the cost ledger: a unit of work the daemon
// counted on /metrics during the measured window, and the standalone
// per-unit cost of the layer that does it.
type ledgerTerm struct {
	name   string
	units  float64 // /metrics delta over the window
	costNs float64 // per-unit layer cost
}

// cores is the CPU the term accounts for over wall seconds.
func (t ledgerTerm) cores(wallS float64) float64 { return t.units * t.costNs / (wallS * 1e9) }

// ledgerTerms maps the window's counter deltas onto the in-process
// layer costs. Raw bits carry physics + gate + pack (the Fill cost) and
// the streaming tracker; assessments, DRBG blocks, reseeds, seed
// draws, requests and journal events carry their own layer's cost. The
// per-request cost is the DRBG pool call at 32 B (its fixed overhead;
// the keystream is counted per block). Raw mode has no standalone
// per-request measure, so its HTTP handling stays in the unexplained
// share.
func ledgerTerms(d promDelta, layer map[string]float64, mode string) []ledgerTerm {
	rawBits := d.sum("trngd_shard_raw_bits_total")
	reqCost := 0.0
	if mode == "drbg" {
		reqCost = layer["entropyd.drbgpool_generate_us.32B"] * 1e3
	}
	return []ledgerTerm{
		{"raw bits: physics+gate+pack", rawBits, layer["entropyd.fill_ns_per_raw_bit"]},
		{"raw bits: streaming tracker", rawBits, layer["sp90b.stream_ns_per_bit"]},
		{"batch assessments", d.sum("trngd_shard_assess_runs_total"), layer["sp90b.assess_ms"] * 1e6},
		{"drbg blocks", d.get("trngd_drbg_generates_total"), layer["drbg.ctr_ns_per_byte"] * float64(drbgConfig().BlockBytes)},
		{"drbg reseeds", d.get("trngd_drbg_reseeds_total"), layer["drbg.ctr_reseed_us"] * 1e3},
		{"seed draws", d.get("trngd_drbg_seed_draws_total"), layer["conditioner.us_per_seed"] * 1e3},
		{"requests", d.get("trngd_requests_total"), reqCost},
		{"journal events", d.get("trngd_journal_events_total"), layer["obs.emit_ns"]},
	}
}

// reconcile returns the accounted cores and the share of the measured
// cores the ledger leaves unexplained (negative when it over-accounts).
func reconcile(terms []ledgerTerm, wallS, cpuCores float64) (accounted, unexplained float64) {
	for _, t := range terms {
		accounted += t.cores(wallS)
	}
	return accounted, 1 - accounted/cpuCores
}
