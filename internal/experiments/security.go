package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ais31"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/onlinetest"
	"repro/internal/osc"
	"repro/internal/postproc"
	"repro/internal/trng"
)

// OnlineCase is one attack scenario of EXP-ATT.
type OnlineCase struct {
	Name string
	// Detected reports whether the monitor alarmed.
	Detected bool
	// LatencySamples is the number of s_N samples consumed before
	// the first alarm (−1 when never).
	LatencySamples int
	// LatencySeconds converts the latency to wall-clock time of the
	// monitored oscillator.
	LatencySeconds float64
	// LowAlarms / HighAlarms counts.
	LowAlarms, HighAlarms int
}

// OnlineResult is the EXP-ATT outcome.
type OnlineResult struct {
	Cases []OnlineCase
	// FalseAlarms over the clean-run windows (must be 0 at the
	// configured 1e-6 per-window alpha).
	CleanWindows int
}

// OnlineTest exercises the paper's proposed embedded thermal-noise
// monitor (§V): a clean run must stay silent; thermal suppression and
// frequency-injection attacks must trip the alarm quickly.
func OnlineTest(scale Scale, seed uint64) (OnlineResult, error) {
	return OnlineTestOpts(scale, seed, Options{})
}

// OnlineTestOpts is OnlineTest with explicit execution options: each
// attack scenario is one engine task with its own pair, counter and
// monitor, so the detection matrix is identical for every worker-pool
// width.
func OnlineTestOpts(scale Scale, seed uint64, opt Options) (OnlineResult, error) {
	m := core.PaperModel()
	const n = 64 // well inside the N*(95%) = 281 independence zone
	samples := 3000
	if scale == Full {
		samples = 12000
	}
	window := 256

	scenarios := []struct {
		name string
		arm  func(o1, o2 *osc.Oscillator)
	}{
		{"clean (no attack)", func(o1, o2 *osc.Oscillator) {}},
		{"thermal suppression 95%", func(o1, o2 *osc.Oscillator) {
			attack.ThermalSuppression{Factor: 0.95}.Arm(o1)
			attack.ThermalSuppression{Factor: 0.95}.Arm(o2)
		}},
		{"injection (lock, 90% suppression)", func(o1, o2 *osc.Oscillator) {
			attack.Injection{FInj: 1e6, Depth: 0.002, JitterSuppression: 0.9}.Arm(o1)
			attack.Injection{FInj: 1e6, Depth: 0.002, JitterSuppression: 0.9}.Arm(o2)
		}},
	}

	type caseRun struct {
		c       OnlineCase
		windows int
	}
	runs, err := engine.Map(context.Background(), len(scenarios), func(_ context.Context, i int) (caseRun, error) {
		sc := scenarios[i]
		pair, err := m.RingPair(engine.DeriveSeed(seed, uint64(i)))
		if err != nil {
			return caseRun{}, err
		}
		sc.arm(pair.Osc1, pair.Osc2)
		c, err := measure.NewCounterConfig(pair, n, measure.Config{Subdivide: 64})
		if err != nil {
			return caseRun{}, err
		}
		mon, err := onlinetest.New(onlinetest.Config{
			N:          n,
			Window:     window,
			RefSigmaN2: m.Phase.SigmaN2Thermal(n) + c.QuantizationFloor(),
		})
		if err != nil {
			return caseRun{}, err
		}
		run, err := onlinetest.Run(mon, c, samples)
		if err != nil {
			return caseRun{}, err
		}
		oc := OnlineCase{
			Name:           sc.name,
			Detected:       run.FirstAlarmWindow >= 0,
			LatencySamples: run.FirstAlarmSamples,
			LowAlarms:      run.LowAlarms,
			HighAlarms:     run.HighAlarms,
		}
		if run.FirstAlarmSamples > 0 {
			oc.LatencySeconds = float64(run.FirstAlarmSamples) * float64(2*n) / m.Phase.F0 // 2·N periods per sample
		} else {
			oc.LatencySamples = -1
		}
		return caseRun{c: oc, windows: run.Windows}, nil
	}, engine.Jobs(opt.Jobs))
	if err != nil {
		return OnlineResult{}, err
	}
	var res OnlineResult
	res.CleanWindows = runs[0].windows
	for _, r := range runs {
		res.Cases = append(res.Cases, r.c)
	}
	return res, nil
}

// Table renders the attack-detection matrix.
func (r OnlineResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXP-ATT  online thermal-noise monitor (paper §V proposal), N=64, window=256\n")
	fmt.Fprintf(&b, "%-34s %9s %12s %14s %6s %6s\n",
		"scenario", "detected", "latency[sN]", "latency[s]", "low", "high")
	for _, c := range r.Cases {
		lat := "-"
		latS := "-"
		if c.LatencySamples >= 0 {
			lat = fmt.Sprintf("%d", c.LatencySamples)
			latS = fmt.Sprintf("%.3g", c.LatencySeconds)
		}
		fmt.Fprintf(&b, "%-34s %9v %12s %14s %6d %6d\n",
			c.Name, c.Detected, lat, latS, c.LowAlarms, c.HighAlarms)
	}
	fmt.Fprintf(&b, "clean run evaluated %d windows with zero alarms expected\n", r.CleanWindows)
	return b.String()
}

// AIS31Row is one configuration of the EXP-AIS run.
type AIS31Row struct {
	Name     string
	Verdicts []ais31.Verdict
	Pass     bool
}

// AIS31Result is the EXP-AIS outcome.
type AIS31Result struct{ Rows []AIS31Row }

// AIS31Run exercises procedure-B-style testing on simulated eRO-TRNG
// output: an under-sampled raw sequence fails, a well-accumulated or
// post-processed sequence passes. (The full procedure A needs 8.3 Mbit
// ≈ 10¹⁰ simulated periods at realistic dividers; procedure B at
// ~2.3 Mbit is the practical certification gate here.)
func AIS31Run(scale Scale, seed uint64) (AIS31Result, error) {
	m := core.PaperModel()
	// Boosted-thermal test article: the paper-calibrated model needs
	// dividers of ~10⁵ periods per bit to reach the well-mixed
	// regime (see EXP-ENT), which at 2.25 Mbit per procedure-B run
	// would mean ~10¹¹ simulated periods. Scaling b_th by 10⁴
	// (σ_th ×100) preserves the architecture and the failure modes
	// while shrinking the mixing divider to ~10.
	hot := m.Phase
	hot.Bth *= 1e4
	hot.Bfl *= 100

	p := ais31.DefaultCoron()
	need := (p.Q+p.K)*p.L + 200001

	var res AIS31Result

	// Case 1: under-sampled raw output (divider far below the
	// entropy requirement): strongly correlated bits.
	gBad, err := trng.New(trng.Config{Model: hot, Divider: 1, Seed: seed})
	if err != nil {
		return AIS31Result{}, err
	}
	bitsBad := gBad.Bits(need)
	vBad, passBad, err := ais31.ProcedureB(bitsBad)
	if err != nil {
		return AIS31Result{}, err
	}
	res.Rows = append(res.Rows, AIS31Row{Name: "raw, divider 1 (under-sampled)", Verdicts: vBad, Pass: passBad})

	// Case 2: properly accumulated raw output (σ_acc ≈ 0.73 cycles
	// per sample: well mixed).
	gGood, err := trng.New(trng.Config{Model: hot, Divider: 10, Seed: seed + 1})
	if err != nil {
		return AIS31Result{}, err
	}
	bitsGood := gGood.Bits(need)
	vGood, passGood, err := ais31.ProcedureB(bitsGood)
	if err != nil {
		return AIS31Result{}, err
	}
	res.Rows = append(res.Rows, AIS31Row{Name: "raw, divider 10 (accumulated)", Verdicts: vGood, Pass: passGood})

	// Case 3: under-sampled output rescued by XOR-8 post-processing.
	gPost, err := trng.New(trng.Config{Model: hot, Divider: 2, Seed: seed + 2})
	if err != nil {
		return AIS31Result{}, err
	}
	raw := gPost.Bits(need * 8)
	bitsPost := postproc.XORDecimate(raw, 8)
	vPost, passPost, err := ais31.ProcedureB(bitsPost[:need])
	if err != nil {
		return AIS31Result{}, err
	}
	res.Rows = append(res.Rows, AIS31Row{Name: "divider 2 + XOR-8 post-proc", Verdicts: vPost, Pass: passPost})

	_ = scale
	return res, nil
}

// Table renders the AIS31 matrix.
func (r AIS31Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXP-AIS  AIS31 procedure B on simulated eRO-TRNG output\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-34s overall=%v\n", row.Name, row.Pass)
		for _, v := range row.Verdicts {
			fmt.Fprintf(&b, "    %s\n", v.String())
		}
	}
	return b.String()
}
