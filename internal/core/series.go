package core

import (
	"fmt"
)

// AccuracySeries replays an observation stream through a predictor
// (after Reset) and returns the prediction accuracy of consecutive
// windows of the given length — the learning curve that shows how long
// a predictor takes to warm up on a workload. The trailing partial
// window is dropped.
func AccuracySeries(p Predictor, obs []Observation, window int) ([]float64, error) {
	if window < 1 {
		return nil, fmt.Errorf("core: window %d must be at least 1", window)
	}
	if len(obs) < window+1 {
		return nil, fmt.Errorf("core: %d observations too few for a %d-interval window", len(obs), window)
	}
	p.Reset()
	pending := p.Observe(obs[0]) // the first interval itself is unscored
	var out []float64
	correct, n := 0, 0
	for _, o := range obs[1:] {
		if pending == o.Phase {
			correct++
		}
		n++
		if n == window {
			out = append(out, float64(correct)/float64(window))
			correct, n = 0, 0
		}
		pending = p.Observe(o)
	}
	return out, nil
}
