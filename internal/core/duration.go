package core

import (
	"fmt"

	"phasemon/internal/phase"
)

// DurationPredictor is a run-length-based phase predictor in the
// lineage the paper cites as prior work (Isci, Martonosi and
// Buyuktosunoglu, "Long-term Workload Phases: Duration Predictions and
// Applications to DVFS", IEEE Micro 2005; Lau et al., HPCA 2005). It
// models execution as runs of stable phases: for each phase it learns
// the typical run duration (an exponential moving average) and the
// most likely successor phase (a first-order transition table).
//
// Prediction: while the current run is shorter than the phase's
// learned duration, predict "stay"; once the run reaches it, predict
// the learned successor. This captures slow phase alternation well but
// — unlike the GPHT — cannot represent patterns whose next phase
// depends on more than the current one, which is exactly the gap the
// paper's Figure 4 exposes on applu/equake. It is provided as an
// additional baseline for ablations.
type DurationPredictor struct {
	numPhases int
	alpha     float64

	current phase.ID
	runLen  int

	// avgRun[p] is the EMA of phase p's run lengths; 0 = unseen.
	avgRun []float64
	// succ[p][q] counts transitions p -> q.
	succ [][]int
}

var _ StatefulPredictor = (*DurationPredictor)(nil)

// NewDurationPredictor builds the predictor. alpha is the EMA
// smoothing for run durations; values in (0, 1]. Zero selects 0.25.
func NewDurationPredictor(numPhases int, alpha float64) (*DurationPredictor, error) {
	if numPhases < 1 {
		return nil, fmt.Errorf("core: duration predictor needs at least 1 phase, got %d", numPhases)
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("core: duration EMA alpha %v outside [0,1]", alpha)
	}
	if alpha == 0 {
		alpha = 0.25
	}
	p := &DurationPredictor{numPhases: numPhases, alpha: alpha}
	p.Reset()
	return p, nil
}

// Name implements Predictor.
func (p *DurationPredictor) Name() string { return "Duration" }

// Observe implements Predictor.
func (p *DurationPredictor) Observe(o Observation) phase.ID {
	actual := o.Phase
	if !actual.Valid(p.numPhases) {
		if actual < 1 {
			actual = 1
		} else {
			actual = phase.ID(p.numPhases)
		}
	}

	switch {
	case p.current == phase.None:
		p.current = actual
		p.runLen = 1
	case actual == p.current:
		p.runLen++
	default:
		// A run of p.current just ended: train duration and successor.
		i := int(p.current) - 1
		if p.avgRun[i] == 0 {
			p.avgRun[i] = float64(p.runLen)
		} else {
			// float64 rounds each product before the add, so no
			// architecture fuses them.
			p.avgRun[i] = float64(p.alpha*float64(p.runLen)) + float64((1-p.alpha)*p.avgRun[i])
		}
		p.succ[i][int(actual)-1]++
		p.current = actual
		p.runLen = 1
	}

	// Predict: stay until the learned duration elapses, then move to
	// the most frequent successor.
	i := int(p.current) - 1
	expected := p.avgRun[i]
	if expected == 0 || float64(p.runLen) < expected-0.5 {
		return p.current
	}
	next := p.bestSuccessor(i)
	if next == phase.None {
		return p.current
	}
	return next
}

func (p *DurationPredictor) bestSuccessor(i int) phase.ID {
	best, bestN := phase.None, 0
	for q, n := range p.succ[i] {
		if n > bestN {
			best, bestN = phase.ID(q+1), n
		}
	}
	return best
}

// Reset implements Predictor.
func (p *DurationPredictor) Reset() {
	p.current = phase.None
	p.runLen = 0
	p.avgRun = make([]float64, p.numPhases)
	p.succ = make([][]int, p.numPhases)
	for i := range p.succ {
		p.succ[i] = make([]int, p.numPhases)
	}
}
