// Package analysis characterizes phase streams: occupancy histograms,
// transition structure, run lengths, entropy, and — most usefully —
// the information-theoretic ceiling on what any predictor of a given
// history depth could achieve on a stream. Comparing the GPHT against
// that ceiling quantifies how much of the predictable structure it
// actually captures, turning the paper's empirical "above 90%
// accuracy" into a statement about optimality.
//
// The package also derives data-driven phase definitions
// (equal-occupancy quantile boundaries) as an alternative to the
// paper's fixed Table 1, for ablating the sensitivity of management
// results to the threshold choice.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"phasemon/internal/phase"
)

// ErrEmptyStream reports analysis over an empty phase stream.
var ErrEmptyStream = errors.New("analysis: empty phase stream")

// clampID folds invalid IDs into the nearest valid phase, matching the
// predictors' behavior.
func clampID(id phase.ID, n int) int {
	if id < 1 {
		return 0
	}
	if int(id) > n {
		return n - 1
	}
	return int(id) - 1
}

// Histogram returns each phase's occupancy fraction in the stream.
func Histogram(ids []phase.ID, numPhases int) ([]float64, error) {
	if len(ids) == 0 {
		return nil, ErrEmptyStream
	}
	if numPhases < 1 {
		return nil, fmt.Errorf("analysis: numPhases %d must be positive", numPhases)
	}
	out := make([]float64, numPhases)
	for _, id := range ids {
		out[clampID(id, numPhases)]++
	}
	for i := range out {
		out[i] /= float64(len(ids))
	}
	return out, nil
}

// Transitions is the first-order phase transition matrix.
type Transitions struct {
	counts [][]int
	total  int
}

// NewTransitions tallies the stream's adjacent phase pairs.
func NewTransitions(ids []phase.ID, numPhases int) (*Transitions, error) {
	if len(ids) < 2 {
		return nil, fmt.Errorf("analysis: need at least 2 samples for transitions")
	}
	if numPhases < 1 {
		return nil, fmt.Errorf("analysis: numPhases %d must be positive", numPhases)
	}
	t := &Transitions{counts: make([][]int, numPhases)}
	for i := range t.counts {
		t.counts[i] = make([]int, numPhases)
	}
	for i := 1; i < len(ids); i++ {
		t.counts[clampID(ids[i-1], numPhases)][clampID(ids[i], numPhases)]++
		t.total++
	}
	return t, nil
}

// SelfLoopFraction returns the fraction of all transitions that stay
// in the same phase — exactly the accuracy a last-value predictor
// achieves on the stream.
func (t *Transitions) SelfLoopFraction() float64 {
	if t.total == 0 {
		return 0
	}
	same := 0
	for i := range t.counts {
		same += t.counts[i][i]
	}
	return float64(same) / float64(t.total)
}

// RunStats summarizes the contiguous runs of one phase.
type RunStats struct {
	Phase   phase.ID
	Count   int
	MeanLen float64
	MaxLen  int
}

// Runs computes per-phase run statistics. Phases absent from the
// stream get a zero-count entry.
func Runs(ids []phase.ID, numPhases int) ([]RunStats, error) {
	if len(ids) == 0 {
		return nil, ErrEmptyStream
	}
	out := make([]RunStats, numPhases)
	for i := range out {
		out[i].Phase = phase.ID(i + 1)
	}
	totalLen := make([]int, numPhases)
	cur := clampID(ids[0], numPhases)
	runLen := 1
	flush := func() {
		out[cur].Count++
		totalLen[cur] += runLen
		if runLen > out[cur].MaxLen {
			out[cur].MaxLen = runLen
		}
	}
	for _, id := range ids[1:] {
		p := clampID(id, numPhases)
		if p == cur {
			runLen++
			continue
		}
		flush()
		cur, runLen = p, 1
	}
	flush()
	for i := range out {
		if out[i].Count > 0 {
			out[i].MeanLen = float64(totalLen[i]) / float64(out[i].Count)
		}
	}
	return out, nil
}

// Entropy returns the order-0 Shannon entropy of the phase stream in
// bits: 0 for a constant stream, log2(numPhases) for uniform.
func Entropy(ids []phase.ID, numPhases int) (float64, error) {
	h, err := Histogram(ids, numPhases)
	if err != nil {
		return 0, err
	}
	var e float64
	for _, p := range h {
		if p > 0 {
			e -= float64(p * math.Log2(p)) // rounded before the subtract: never fused
		}
	}
	return e, nil
}

// PredictabilityBound returns the accuracy ceiling for any predictor
// that conditions on the previous `order` phases: for each observed
// context, the best possible policy predicts the context's most
// frequent successor, and the bound is the frequency-weighted success
// rate of that policy measured on the stream itself.
//
// This is an optimistic (trained-on-the-test-set) bound: a real online
// predictor like the GPHT pays additionally for warm-up and
// non-stationarity, so bound − accuracy measures that overhead.
func PredictabilityBound(ids []phase.ID, numPhases, order int) (float64, error) {
	if order < 0 {
		return 0, fmt.Errorf("analysis: negative order %d", order)
	}
	if len(ids) <= order {
		return 0, fmt.Errorf("analysis: stream of %d samples too short for order %d", len(ids), order)
	}
	if numPhases < 1 || numPhases > 15 {
		return 0, fmt.Errorf("analysis: numPhases %d outside [1,15]", numPhases)
	}
	if order > 15 {
		return 0, fmt.Errorf("analysis: order %d too deep to pack", order)
	}
	// successors[context][phase] = occurrences.
	successors := map[uint64][]int{}
	var ctx uint64
	mask := uint64(1)<<(4*uint(order)) - 1
	if order == 0 {
		mask = 0
	}
	total := 0
	for i, id := range ids {
		p := clampID(id, numPhases)
		if i >= order {
			row, ok := successors[ctx]
			if !ok {
				row = make([]int, numPhases)
				successors[ctx] = row
			}
			row[p]++
			total++
		}
		ctx = (ctx<<4 | uint64(p+1)) & mask
	}
	correct := 0
	for _, row := range successors {
		best := 0
		for _, c := range row {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(total), nil
}

// QuantileTable derives phase boundaries from an observed Mem/Uop
// distribution so each phase covers an equal share of the samples —
// a data-driven alternative to the paper's fixed Table 1. It fails
// when the distribution is too degenerate to produce strictly
// ascending positive boundaries (e.g. a constant workload).
func QuantileTable(name string, mems []float64, numPhases int) (*phase.Table, error) {
	if len(mems) == 0 {
		return nil, ErrEmptyStream
	}
	if numPhases < 2 {
		return nil, fmt.Errorf("analysis: need at least 2 phases, got %d", numPhases)
	}
	sorted := make([]float64, len(mems))
	copy(sorted, mems)
	sort.Float64s(sorted)
	bounds := make([]float64, 0, numPhases-1)
	prev := 0.0
	for i := 1; i < numPhases; i++ {
		q := sorted[i*len(sorted)/numPhases]
		if q <= prev || q <= 0 {
			return nil, fmt.Errorf("analysis: distribution too degenerate for %d equal-occupancy phases (quantile %d = %v)", numPhases, i, q)
		}
		bounds = append(bounds, q)
		prev = q
	}
	return phase.NewTable(name, bounds)
}
