package tournament

import (
	"math"

	"phasemon/internal/fleet"
	"phasemon/internal/governor"
	"phasemon/internal/machine"
)

// ClassTally is one canonical phase class's slice of a cell's
// mispredictions, JSON-ready (classes render by name, not enum value).
type ClassTally struct {
	Class      string `json:"class"`
	Intervals  int    `json:"intervals"`
	Total      int    `json:"mispredicted"`
	Transition int    `json:"transition"`
	Steady     int    `json:"steady"`
}

// CellScore is one scored grid cell: the spec's run on one workload at
// one granularity, reduced against that workload's baseline run.
type CellScore struct {
	Workload        string `json:"workload"`
	Spec            string `json:"spec"`
	GranularityUops uint64 `json:"granularity_uops"`
	Intervals       int    `json:"intervals"`

	// Accuracy is the run's prediction hit rate.
	Accuracy float64 `json:"accuracy"`
	// CPIError is the mean absolute error between each interval's
	// measured CPI and the mean CPI of the phase the predictor claimed
	// it would be — how wrong the predictions were in performance
	// terms, not just in label terms.
	CPIError float64 `json:"cpi_error"`

	// The energy proxy, relative to the same workload's unmanaged
	// baseline at the same granularity.
	EDPImprovement  float64 `json:"edp_improvement"`
	EnergySavings   float64 `json:"energy_savings"`
	PerfDegradation float64 `json:"perf_degradation"`

	// Mispredicts breaks the misses down by canonical phase class,
	// split transition vs steady — one entry per real class, ascending.
	Mispredicts []ClassTally `json:"mispredicts"`

	// Score is the composite ranking key (see score()).
	Score float64 `json:"score"`
}

// runSummary is everything scoring reads of one governed run (or of a
// prefix of one). playRound reduces each run to its summaries on the
// fleet worker that ran it, so the run's kernel log is garbage before
// that worker takes its next spec.
type runSummary struct {
	run         machine.RunResult
	accuracy    float64
	cpiError    float64
	mispredicts []ClassTally
}

// summarize reduces a fleet result to one runSummary per round it
// covers: its prefixes, shortest first, then the run itself. A
// baseline contributes only its RunResult to scoring (Grid.Validate
// keeps "baseline" out of the contestants), so its log is not walked.
func summarize(numPhases int) func(fleet.Result) []runSummary {
	one := func(policy string, res *governor.Result) runSummary {
		s := runSummary{run: res.Run}
		if policy == baselineSpec {
			return s
		}
		if acc, err := res.Accuracy.Accuracy(); err == nil {
			s.accuracy = acc
		}
		s.cpiError = cpiError(res, numPhases)
		breakdown := governor.MispredictBreakdown(res, numPhases)
		s.mispredicts = make([]ClassTally, len(breakdown))
		for i, c := range breakdown {
			s.mispredicts[i] = ClassTally{
				Class:      c.Class.String(),
				Intervals:  c.Intervals,
				Total:      c.Total,
				Transition: c.Transition,
				Steady:     c.Steady,
			}
		}
		return s
	}
	return func(r fleet.Result) []runSummary {
		if r.Res == nil {
			return nil
		}
		out := make([]runSummary, 0, len(r.Res.Prefixes)+1)
		for _, p := range r.Res.Prefixes {
			out = append(out, one(r.Spec.Policy, p))
		}
		return append(out, one(r.Spec.Policy, r.Res))
	}
}

// scoreCell scores one managed run's summary against its baseline's.
// Pure arithmetic over the two summaries: nothing here may read the
// clock or depend on scheduling, or the leaderboard's byte-identity
// contract breaks.
func scoreCell(cell Cell, intervals int, managed, baseline runSummary) CellScore {
	cs := CellScore{
		Workload:        cell.Workload,
		Spec:            cell.Spec,
		GranularityUops: cell.GranularityUops,
		Intervals:       intervals,
		Accuracy:        managed.accuracy,
		CPIError:        managed.cpiError,
		Mispredicts:     managed.mispredicts,
	}
	base, man := &governor.Result{Run: baseline.run}, &governor.Result{Run: managed.run}
	cs.EDPImprovement = governor.EDPImprovement(base, man)
	cs.EnergySavings = governor.EnergySavings(base, man)
	cs.PerfDegradation = governor.PerformanceDegradation(base, man)
	cs.Score = score(cs)
	return cs
}

// Composite weights: prediction quality dominates, the energy outcome
// it exists to serve comes second, CPI fidelity referees between specs
// with equal hit rates, and degradation beyond the baseline's
// performance is charged in full.
const (
	weightAccuracy = 0.45
	weightEDP      = 0.35
	weightCPI      = 0.20
)

// score folds a cell into one ranking key, higher is better. The CPI
// term maps the unbounded error onto (0, 1] via 1/(1+err) so a spec
// can never buy rank with wild CPI misses, and performance
// degradation subtracts directly — a predictor that slows the machine
// down must pay for it regardless of its hit rate.
func score(cs CellScore) float64 {
	s := weightAccuracy*cs.Accuracy +
		weightEDP*cs.EDPImprovement +
		weightCPI/(1+cs.CPIError)
	if cs.PerfDegradation > 0 {
		s -= cs.PerfDegradation
	}
	return s
}

// cpiError measures prediction quality in performance terms: each
// logged interval's measured CPI against the mean CPI of the phase the
// predictor named for it. A predictor that confuses two phases with
// near-identical CPI is barely penalized; one that calls a memory-bound
// interval CPU-bound pays the full CPI gap.
func cpiError(r *governor.Result, numPhases int) float64 {
	// First pass: mean measured CPI per actual phase, plus the global
	// mean as the stand-in for phases the run never exhibited.
	sum := make([]float64, numPhases+1)
	n := make([]int, numPhases+1)
	var gsum float64
	var gn int
	for _, e := range r.Log {
		if e.UPC <= 0 {
			continue
		}
		cpi := 1 / e.UPC
		gsum += cpi
		gn++
		if e.Actual.Valid(numPhases) {
			sum[e.Actual] += cpi
			n[e.Actual]++
		}
	}
	if gn == 0 {
		return 0
	}
	gmean := gsum / float64(gn)
	mean := make([]float64, numPhases+1)
	for p := 1; p <= numPhases; p++ {
		mean[p] = gmean
		if n[p] > 0 {
			mean[p] = sum[p] / float64(n[p])
		}
	}
	// Second pass: mean |CPI − mean CPI of the phase predicted for the
	// interval|. Entry i−1's Predicted is the call made for interval i
	// (the handler predicts forward), so the first interval — which
	// nothing predicted — is not scored, matching the accuracy tally.
	var errSum float64
	var errN int
	for i := 1; i < len(r.Log); i++ {
		e := r.Log[i]
		if e.UPC <= 0 {
			continue
		}
		m := gmean
		if p := r.Log[i-1].Predicted; p.Valid(numPhases) {
			m = mean[p]
		}
		errSum += math.Abs(1/e.UPC - m)
		errN++
	}
	if errN == 0 {
		return 0
	}
	return errSum / float64(errN)
}
