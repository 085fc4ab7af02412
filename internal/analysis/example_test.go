package analysis_test

import (
	"fmt"

	"phasemon/internal/analysis"
	"phasemon/internal/phase"
)

// The predictability ceiling: the best any depth-1 predictor could do
// on a stream, measured from the stream itself.
func ExamplePredictabilityBound() {
	// A strict alternation: hopeless for order 0, trivial for order 1.
	var stream []phase.ID
	for i := 0; i < 100; i++ {
		stream = append(stream, phase.ID(1+i%2*4))
	}
	b0, _ := analysis.PredictabilityBound(stream, 6, 0)
	b1, _ := analysis.PredictabilityBound(stream, 6, 1)
	fmt.Printf("order-0 ceiling: %.0f%%\n", b0*100)
	fmt.Printf("order-1 ceiling: %.0f%%\n", b1*100)
	// Output:
	// order-0 ceiling: 50%
	// order-1 ceiling: 100%
}
