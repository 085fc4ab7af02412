package tournament

import (
	"math"

	"phasemon/internal/governor"
	"phasemon/internal/kernelsim"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
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

// runSummary is everything scoring reads of one round of a replay.
// The tournament reduces each replay to its summaries on the fleet
// worker that replayed it, so no replay outlives its reduction.
type runSummary struct {
	run         machine.RunResult
	accuracy    float64
	cpiError    float64
	mispredicts []ClassTally
}

// summarize reduces the result of a replay's latest Run to what
// scoring reads. A baseline contributes only its RunResult to scoring
// (Grid.Validate keeps "baseline" out of the contestants), so its
// intervals are not walked. A managed cell is scored on the kernel log
// the run keeps — its newest DefaultLogCapacity entries, as the ring
// keeps them — read back from the replay's records.
func summarize(policy string, res *governor.Result, rp *governor.Replay, numPhases int) runSummary {
	s := runSummary{run: res.Run}
	if policy == baselineSpec {
		return s
	}
	if acc, err := res.Accuracy.Accuracy(); err == nil {
		s.accuracy = acc
	}
	recs := rp.Records()
	s.cpiError, s.mispredicts = scoreLog(recs[max(0, len(recs)-kernelsim.DefaultLogCapacity):], numPhases)
	return s
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

// scoreLog walks a run's kernel log, in the compact form of a
// replay's records, in two passes. The first finds each phase's mean measured CPI.
// The second scores prediction quality two ways at once:
//
//   - in performance terms, as the mean distance between each
//     interval's measured CPI and the mean CPI of the phase the
//     predictor named for it (cpiErr). A predictor that confuses two
//     phases with near-identical CPI is barely penalized; one that
//     calls a memory-bound interval CPU-bound pays the full CPI gap;
//   - in label terms, as the mispredictions charged to each canonical
//     phase class, split by whether the missed interval sat on a phase
//     transition (its actual phase differs from the previous
//     interval's) or inside a steady run. Transition misses are the
//     unavoidable cost of reacting one interval late; steady misses
//     mean the predictor is wrong about a phase it has already seen.
//     There is one tally per real class, ascending, zero-filled for
//     classes the run never touched.
//
// An entry's Predicted is the call made for the following interval
// (the handler predicts forward), so each interval is scored against
// its predecessor's prediction and the first — which nothing predicted
// — is not scored, matching the accuracy tally.
func scoreLog(log []governor.Record, numPhases int) (cpiErr float64, mispredicts []ClassTally) {
	// The passes index per-phase tables by a record's uint8 phase, so
	// they read no bounds check and branch on no phase's validity.
	//
	// First pass: mean measured CPI per actual phase, plus the global
	// mean as the stand-in for phases the run never exhibited.
	var sum [256]float64
	var n [256]int
	var gsum float64
	var gn int
	for _, r := range log {
		if r.UPC <= 0 {
			continue
		}
		cpi := 1 / r.UPC
		gsum += cpi
		gn++
		sum[r.Actual] += cpi
		n[r.Actual]++
	}
	var gmean float64
	if gn > 0 {
		gmean = gsum / float64(gn)
	}
	// mean[p] is the mean CPI of the phase a prediction p names, and
	// class[p] the index of its tally, -1 for no real class.
	var mean [256]float64
	var class [256]int
	for p := range mean {
		mean[p], class[p] = gmean, -1
		if id := phase.ID(p); id.Valid(numPhases) {
			if n[p] > 0 {
				mean[p] = sum[p] / float64(n[p])
			}
			if c := phase.ClassOf(id, numPhases); c.Valid() {
				class[p] = int(c - phase.ClassCPUBound)
			}
		}
	}

	// Second pass: mean |CPI − mean CPI of the predicted phase|, and
	// the misses by class.
	mispredicts = make([]ClassTally, phase.NumClasses)
	for i := range mispredicts {
		mispredicts[i].Class = (phase.ClassCPUBound + phase.Class(i)).String()
	}
	var errSum float64
	var errN int
	for i := 1; i < len(log); i++ {
		r, prev := log[i], log[i-1]
		if c := class[r.Actual]; c >= 0 {
			ct := &mispredicts[c]
			ct.Intervals++
			if prev.Predicted != r.Actual {
				ct.Total++
				if r.Actual != prev.Actual {
					ct.Transition++
				} else {
					ct.Steady++
				}
			}
		}
		if r.UPC > 0 {
			errSum += math.Abs(1/r.UPC - mean[prev.Predicted])
			errN++
		}
	}
	if errN > 0 {
		cpiErr = errSum / float64(errN)
	}
	return cpiErr, mispredicts
}
