// Custom phases: the framework is phase-definition-agnostic (the
// paper's Section 8 positions it as a general foundation). This
// example plugs in a custom three-phase classifier, a custom DVFS
// translation over a custom workload generator, and runs the same
// monitoring + prediction + management stack.
//
// Run with: go run ./examples/custom_phases
package main

import (
	"fmt"
	"log"
	"math"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/workload"

	"phasemon/internal/phase"
)

// sawtooth is a custom workload: Mem/Uop ramps from CPU-bound to
// memory-bound and snaps back, like a working set that outgrows the
// cache until the program rotates buffers.
type sawtooth struct {
	n, total int
}

func (s *sawtooth) Name() string { return "sawtooth" }

func (s *sawtooth) Next() (cpusim.Work, bool) {
	if s.n >= s.total {
		return cpusim.Work{}, false
	}
	pos := float64(s.n%40) / 40
	s.n++
	return cpusim.Work{
		Uops:         100e6,
		Instructions: 90e6,
		MemPerUop:    0.002 + float64(0.04*pos), // rounded before the add: never fused
		CoreUPC:      1.2 - float64(0.5*pos),
		MLP:          1,
	}, true
}

func (s *sawtooth) Reset() { s.n = 0 }

func main() {
	// A three-phase definition: compute / mixed / memory.
	classifier, err := phase.NewTable("three", []float64{0.010, 0.025})
	if err != nil {
		log.Fatal(err)
	}

	// A custom translation over the Pentium-M ladder: full speed,
	// 1.2 GHz, and 800 MHz.
	ladder := dvfs.PentiumM()
	translation, err := dvfs.NewTranslation(ladder, classifier.NumPhases(),
		[]dvfs.Setting{0, 2, 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("custom phase definitions and translation:")
	fmt.Print(translation.Describe(classifier))
	fmt.Println()

	gen := &sawtooth{total: 800}
	cfg := governor.Config{Classifier: classifier, Translation: translation}

	base, err := governor.Run(gen, governor.Unmanaged(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	managed, err := governor.Run(gen, governor.Proactive(8, 128), cfg)
	if err != nil {
		log.Fatal(err)
	}

	acc, err := managed.Accuracy.Accuracy()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sawtooth workload, %d intervals\n", len(managed.Log))
	fmt.Printf("  GPHT accuracy under the custom definition: %.1f%%\n", acc*100)
	fmt.Printf("  EDP improvement:         %.1f%%\n", governor.EDPImprovement(base, managed)*100)
	fmt.Printf("  performance degradation: %.1f%%\n", governor.PerformanceDegradation(base, managed)*100)
	fmt.Printf("  power savings:           %.1f%%\n", governor.PowerSavings(base, managed)*100)

	// The sawtooth has a strict period of 40; the GPHT learns it
	// almost perfectly, so the only remaining headroom is the warm-up.
	if acc < 0.9 {
		log.Fatalf("expected the GPHT to learn the sawtooth, got %.1f%%", acc*100)
	}

	// Also demonstrate using the workload package's registry against
	// the same custom definition.
	prof, err := workload.ByName("equake_in")
	if err != nil {
		log.Fatal(err)
	}
	egen := prof.Generator(workload.Params{Seed: 1, Intervals: 500})
	ebase, err := governor.Run(egen, governor.Unmanaged(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	emanaged, err := governor.Run(egen, governor.Proactive(8, 128), cfg)
	if err != nil {
		log.Fatal(err)
	}
	imp := governor.EDPImprovement(ebase, emanaged)
	fmt.Printf("\nequake_in under the custom 3-phase definition: EDP improvement %.1f%%\n", imp*100)
	if math.IsNaN(imp) {
		log.Fatal("unexpected NaN")
	}
}
