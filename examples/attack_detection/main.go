// Attack detection: the paper's §V proposal — an embedded online test
// that monitors the THERMAL noise contribution via small-N counter
// statistics — against a frequency-injection attack (Markettos & Moore)
// that sets in mid-run.
//
//	go run ./examples/attack_detection
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/onlinetest"
)

func main() {
	model := core.PaperModel()
	pair, err := model.RingPair(99)
	if err != nil {
		log.Fatal(err)
	}

	// Attack switches on after 2 ms of clean operation: an injected
	// tone near 1 MHz entrains both rings and squeezes 90 % of the
	// thermal jitter.
	const onset = 2e-3
	atk := attack.Injection{FInj: 1e6, Depth: 0.002, Sched: attack.At(onset), JitterSuppression: 0.9}
	atk.Arm(pair.Osc1)
	atk.Arm(pair.Osc2)
	fmt.Printf("armed: %s\n", atk.Describe())

	const n = 64 // inside the independence zone N < 281
	c, err := measure.NewCounterConfig(pair, n, measure.Config{Subdivide: 64})
	if err != nil {
		log.Fatal(err)
	}
	mon, err := onlinetest.New(onlinetest.Config{
		N:          n,
		Window:     256,
		RefSigmaN2: model.Phase.SigmaN2Thermal(n) + c.QuantizationFloor(),
	})
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := mon.Bounds()
	fmt.Printf("monitor: N=%d window=256 bounds=(%.3g, %.3g) s^2\n", n, lo, hi)

	res, err := onlinetest.Run(mon, c, 8000)
	if err != nil {
		log.Fatal(err)
	}
	onsetSample := int(onset * model.Phase.F0 / float64(2*n)) // 2·N periods per s_N sample
	fmt.Printf("attack onset at s_N sample ~%d (t = %.1f ms)\n", onsetSample, onset*1e3)
	if res.FirstAlarmWindow < 0 {
		fmt.Println("NOT DETECTED — the entropy source died silently")
		return
	}
	tAlarm := float64(res.FirstAlarmSamples) * float64(2*n) / model.Phase.F0
	fmt.Printf("ALARM at s_N sample %d (t = %.2f ms): detection latency %.2f ms\n",
		res.FirstAlarmSamples, tAlarm*1e3, (tAlarm-onset)*1e3)
	fmt.Printf("alarm windows: %d low-side, %d high-side out of %d evaluated\n",
		res.LowAlarms, res.HighAlarms, res.Windows)
	fmt.Println("\nthe same monitor calibrated against TOTAL long-accumulation jitter")
	fmt.Println("(flicker included) would need a far larger N and would blind itself —")
	fmt.Println("the reason the paper insists on the thermal-only reference.")
}
