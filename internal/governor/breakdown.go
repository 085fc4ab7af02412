package governor

import (
	"phasemon/internal/phase"
)

// MispredictCell tallies the mispredictions charged to one canonical
// phase class, split by whether the missed interval sat on a phase
// transition (its actual phase differs from the previous interval's)
// or inside a steady run. Transition misses are the unavoidable cost
// of reacting one interval late; steady misses mean the predictor is
// wrong about a phase it has already seen.
type MispredictCell struct {
	Class phase.Class
	// Intervals is how many intervals of this class the run logged.
	Intervals int
	// Total, Transition and Steady count the mispredicted ones.
	Total      int
	Transition int
	Steady     int
}

// MispredictBreakdown aggregates a run's mispredictions by the actual
// phase's canonical class. A log entry's Predicted field is the
// prediction made *for the following interval* (the handler predicts
// forward, exactly like the monitor), so interval i is scored against
// entry i−1's prediction and the first interval — which nothing
// predicted — is not scored, matching Result.Accuracy's tally.
//
// The result always has one cell per real class (NumClasses entries in
// ascending class order, zero-filled when the run never touched the
// class), so reductions over many runs can index cells positionally.
func MispredictBreakdown(r *Result, numPhases int) []MispredictCell {
	out := make([]MispredictCell, phase.NumClasses)
	for i := range out {
		out[i].Class = phase.ClassCPUBound + phase.Class(i)
	}
	for i := 1; i < len(r.Log); i++ {
		e := r.Log[i]
		c := phase.ClassOf(e.Actual, numPhases)
		if !c.Valid() {
			continue
		}
		cell := &out[int(c)-1]
		cell.Intervals++
		if r.Log[i-1].Predicted != e.Actual {
			cell.Total++
			if e.Actual != r.Log[i-1].Actual {
				cell.Transition++
			} else {
				cell.Steady++
			}
		}
	}
	return out
}
