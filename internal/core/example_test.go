package core_test

import (
	"fmt"
	"log"

	"phasemon/internal/core"
	"phasemon/internal/phase"
)

// The smallest useful deployment: classify samples, predict the next
// phase, and read back accuracy — the loop a PMI handler runs.
func ExampleMonitor_Step() {
	gpht, err := core.NewGPHT(core.DefaultGPHTConfig())
	if err != nil {
		log.Fatal(err)
	}
	monitor, err := core.NewMonitor(phase.Default(), gpht)
	if err != nil {
		log.Fatal(err)
	}

	// A program alternating between a compute loop and a memory sweep.
	pattern := []float64{0.002, 0.002, 0.033}
	for i := 0; i < 300; i++ {
		monitor.Step(phase.Sample{MemPerUop: pattern[i%len(pattern)]})
	}

	acc, err := monitor.Tally().Accuracy()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GPHT accuracy on a strict period-3 pattern: %.0f%%\n", acc*100)
	// Output:
	// GPHT accuracy on a strict period-3 pattern: 98%
}

// Predictors share one interface; evaluation is uniform.
func ExampleEvaluate() {
	// A stream that strictly alternates phases 1 and 6 (Mem/Uop
	// 0.0025 and 0.04 under the default table).
	var obs []core.Observation
	for i := 0; i < 200; i++ {
		o := core.Observation{Sample: phase.Sample{MemPerUop: 0.0025}, Phase: 1}
		if i%2 == 1 {
			o = core.Observation{Sample: phase.Sample{MemPerUop: 0.04}, Phase: 6}
		}
		obs = append(obs, o)
	}

	lv, err := core.Evaluate(core.NewLastValue(), obs)
	if err != nil {
		log.Fatal(err)
	}
	g, err := core.Evaluate(core.MustNewGPHT(core.DefaultGPHTConfig()), obs)
	if err != nil {
		log.Fatal(err)
	}
	lvAcc, _ := lv.Accuracy()
	gAcc, _ := g.Accuracy()
	fmt.Printf("last value: %.0f%%, GPHT: %.0f%%\n", lvAcc*100, gAcc*100)
	// Output:
	// last value: 0%, GPHT: 95%
}
