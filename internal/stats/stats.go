// Package stats provides the workload-characterization and
// prediction-quality metrics used throughout the paper's evaluation:
// sample variation (Figure 3's y axis), power-savings potential
// (Figure 3's x axis), quadrant categorization, and prediction
// accuracy tallies.
package stats

import (
	"errors"
	"fmt"
	"math"

	"phasemon/internal/phase"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variation returns the fraction (0..1) of adjacent sample pairs whose
// absolute difference exceeds threshold. With Mem/Uop samples at the
// paper's 100M-instruction granularity and threshold 0.005, this is
// exactly Figure 3's "sample variation" — the measure of how unstable
// a benchmark is.
func Variation(xs []float64, threshold float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	n := 0
	for i := 1; i < len(xs); i++ {
		if math.Abs(xs[i]-xs[i-1]) > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs)-1)
}

// Quadrant is Figure 3's benchmark categorization.
type Quadrant int

// The four quadrants of the variability × savings-potential plane.
const (
	// Q1: stable, little power-saving opportunity (most of SPEC).
	Q1 Quadrant = 1
	// Q2: stable, high saving potential (swim, mcf).
	Q2 Quadrant = 2
	// Q3: variable and high saving potential (applu, equake, ...).
	Q3 Quadrant = 3
	// Q4: variable, low saving potential.
	Q4 Quadrant = 4
)

// String returns "Q1".."Q4".
func (q Quadrant) String() string {
	if q < Q1 || q > Q4 {
		return fmt.Sprintf("Q(%d)", int(q))
	}
	return fmt.Sprintf("Q%d", int(q))
}

// DefaultVariationSplit and DefaultSavingsSplit are the quadrant
// boundaries read off the paper's Figure 3: a benchmark is "variable"
// when more than ~18% of its samples move by >0.005 Mem/Uop (the split
// separating the "last 6" variable benchmarks from the rest), and has
// savings potential when its average Mem/Uop exceeds ~0.008 (i.e. it
// spends real time beyond phase 2).
const (
	DefaultVariationSplit = 0.18
	DefaultSavingsSplit   = 0.008
)

// Classify places a benchmark in a Figure 3 quadrant from its average
// Mem/Uop (savings potential) and sample variation fraction.
func Classify(avgMemPerUop, variation, savingsSplit, variationSplit float64) Quadrant {
	variable := variation > variationSplit
	savings := avgMemPerUop > savingsSplit
	switch {
	case !variable && !savings:
		return Q1
	case !variable && savings:
		return Q2
	case variable && savings:
		return Q3
	default:
		return Q4
	}
}

// Tally accumulates prediction outcomes.
type Tally struct {
	total   int
	correct int
}

// ErrNoPredictions reports an empty tally where a rate was required.
var ErrNoPredictions = errors.New("stats: no predictions tallied")

// Record adds one prediction outcome.
func (t *Tally) Record(predicted, actual phase.ID) {
	t.total++
	if predicted == actual {
		t.correct++
	}
}

// Total returns how many predictions were tallied.
func (t Tally) Total() int { return t.total }

// Correct returns how many predictions were correct.
func (t Tally) Correct() int { return t.correct }

// Accuracy returns the fraction of correct predictions in 0..1.
func (t Tally) Accuracy() (float64, error) {
	if t.total == 0 {
		return 0, ErrNoPredictions
	}
	return float64(t.correct) / float64(t.total), nil
}

// Reset clears the tally.
func (t *Tally) Reset() { *t = Tally{} }

// TallyFromCounts rebuilds a tally from its exported counts — the
// import path for snapshot restore, mirroring NewConfusionFromCounts.
func TallyFromCounts(total, correct int) (Tally, error) {
	if total < 0 || correct < 0 || correct > total {
		return Tally{}, fmt.Errorf("stats: tally counts %d/%d invalid", correct, total)
	}
	return Tally{total: total, correct: correct}, nil
}

// Confusion is a per-phase breakdown of predictions: rows are actual
// phases, columns predicted phases. It diagnoses which transitions a
// predictor gets wrong.
type Confusion struct {
	n      int
	counts [][]int
}

// NewConfusion builds a matrix for a classifier with n phases.
func NewConfusion(n int) (*Confusion, error) {
	if n < 1 {
		return nil, fmt.Errorf("stats: confusion needs at least 1 phase, got %d", n)
	}
	c := &Confusion{n: n, counts: make([][]int, n+1)}
	for i := range c.counts {
		c.counts[i] = make([]int, n+1)
	}
	return c, nil
}

// NewConfusionFromCounts rebuilds a matrix from a full (n+1)×(n+1)
// count grid as returned by Counts — the import path for telemetry
// layers that accumulate counts externally (e.g. in atomic cells) and
// materialize a Confusion only when exporting a view.
func NewConfusionFromCounts(counts [][]int) (*Confusion, error) {
	n := len(counts) - 1
	if n < 1 {
		return nil, fmt.Errorf("stats: confusion counts need at least a 2x2 grid, got %d rows", len(counts))
	}
	c := &Confusion{n: n, counts: make([][]int, n+1)}
	for i, row := range counts {
		if len(row) != n+1 {
			return nil, fmt.Errorf("stats: confusion row %d has %d columns, want %d", i, len(row), n+1)
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("stats: negative count %d at [%d][%d]", v, i, j)
			}
		}
		c.counts[i] = append([]int(nil), row...)
	}
	return c, nil
}

// Record adds one outcome. Out-of-range IDs (including None) land in
// index 0.
func (c *Confusion) Record(predicted, actual phase.ID) {
	c.counts[c.clamp(actual)][c.clamp(predicted)]++
}

func (c *Confusion) clamp(id phase.ID) int {
	if !id.Valid(c.n) {
		return 0
	}
	return int(id)
}

// Count returns how often "actual" was predicted as "predicted".
func (c *Confusion) Count(predicted, actual phase.ID) int {
	return c.counts[c.clamp(actual)][c.clamp(predicted)]
}

// PerPhaseAccuracy returns the accuracy for intervals whose actual
// phase was id, and whether any such interval occurred.
func (c *Confusion) PerPhaseAccuracy(id phase.ID) (float64, bool) {
	row := c.counts[c.clamp(id)]
	total := 0
	for _, v := range row {
		total += v
	}
	if total == 0 {
		return 0, false
	}
	return float64(row[c.clamp(id)]) / float64(total), true
}

// NumPhases returns the number of phases the matrix covers.
func (c *Confusion) NumPhases() int { return c.n }

// Counts returns a copy of the full (n+1)×(n+1) count matrix: rows are
// actual phases, columns predicted phases, and index 0 collects
// None/out-of-range IDs. The copy is the caller's to mutate.
func (c *Confusion) Counts() [][]int {
	out := make([][]int, len(c.counts))
	for i, row := range c.counts {
		out[i] = append([]int(nil), row...)
	}
	return out
}

// RowNormalized returns the count matrix with each row scaled to sum
// to 1 — the per-actual-phase prediction distribution a live accuracy
// view displays. Rows with no observations (including the whole matrix
// before any Record) stay all-zero rather than becoming NaN.
func (c *Confusion) RowNormalized() [][]float64 {
	out := make([][]float64, len(c.counts))
	for i, row := range c.counts {
		out[i] = make([]float64, len(row))
		total := 0
		for _, v := range row {
			total += v
		}
		if total == 0 {
			continue
		}
		for j, v := range row {
			out[i][j] = float64(v) / float64(total)
		}
	}
	return out
}
