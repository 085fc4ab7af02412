package tournament

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"phasemon/internal/fleet"
	"phasemon/internal/governor"
	"phasemon/internal/phase"
)

// referenceScoreCell is the scorer before runs were reduced on the
// fleet workers: it reads two full governor results, kernel logs
// included. Summary scoring must match it bit for bit.
func referenceScoreCell(cell Cell, intervals, numPhases int, managed, baseline *governor.Result) CellScore {
	cs := CellScore{
		Workload:        cell.Workload,
		Spec:            cell.Spec,
		GranularityUops: cell.GranularityUops,
		Intervals:       intervals,
	}
	if acc, err := managed.Accuracy.Accuracy(); err == nil {
		cs.Accuracy = acc
	}
	cs.CPIError = cpiError(managed, numPhases)
	cs.EDPImprovement = governor.EDPImprovement(baseline, managed)
	cs.EnergySavings = governor.EnergySavings(baseline, managed)
	cs.PerfDegradation = governor.PerformanceDegradation(baseline, managed)
	for _, c := range governor.MispredictBreakdown(managed, numPhases) {
		cs.Mispredicts = append(cs.Mispredicts, ClassTally{
			Class:      c.Class.String(),
			Intervals:  c.Intervals,
			Total:      c.Total,
			Transition: c.Transition,
			Steady:     c.Steady,
		})
	}
	cs.Score = score(cs)
	return cs
}

// TestSummaryScoringMatchesFullResults replays every round of a
// two-granularity, elimination tournament with full governor results
// and scores each cell with referenceScoreCell: every CellScore field
// must equal the tournament's, floats compared bit for bit.
func TestSummaryScoringMatchesFullResults(t *testing.T) {
	g := Grid{
		Workloads:     []string{"applu_in", "gzip_graphic"},
		Specs:         []string{"lastvalue", "reactive", "gpht_4_64", "markov_2", "dtree_4"},
		Granularities: []uint64{100_000_000, 50_000_000},
		Intervals:     48,
	}
	lb := runTournament(t, Config{Grid: g, Rounds: 2, TopK: 3, Workers: 2})
	if len(lb.Rounds) != 2 || len(lb.Rounds[1].Cells) != 2*3*2 {
		t.Fatalf("want 2 rounds with 12 cells in the second, got %d rounds", len(lb.Rounds))
	}
	g = g.withDefaults()
	numPhases := phase.Default().NumPhases()
	engine := fleet.New(fleet.Config{Workers: 2, BaseSeed: g.Seed})
	for _, round := range lb.Rounds {
		var alive []string
		for _, cs := range round.Cells {
			if !slices.Contains(alive, cs.Spec) {
				alive = append(alive, cs.Spec)
			}
		}
		specs, cells := roundSpecs(g, alive, round.Intervals)
		full, err := engine.RunAll(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != len(round.Cells) {
			t.Fatalf("round %d: %d cells replayed, %d scored", round.Round, len(cells), len(round.Cells))
		}
		nBase := len(specs) - len(cells)
		for i, cell := range cells {
			var base *governor.Result
			for _, r := range full[:nBase] {
				if r.Spec.Workload == cell.Workload && r.Spec.GranularityUops == cell.GranularityUops {
					base = r.Res
				}
			}
			want := referenceScoreCell(cell, round.Intervals, numPhases, full[nBase+i].Res, base)
			got := round.Cells[i]
			if !sameCellScore(got, want) {
				t.Errorf("round %d cell %+v:\n got  %+v\n want %+v", round.Round, cell, got, want)
			}
		}
	}
}

// sameCellScore compares every CellScore field, floats by their bits.
func sameCellScore(a, b CellScore) bool {
	floats := [][2]float64{
		{a.Accuracy, b.Accuracy},
		{a.CPIError, b.CPIError},
		{a.EDPImprovement, b.EDPImprovement},
		{a.EnergySavings, b.EnergySavings},
		{a.PerfDegradation, b.PerfDegradation},
		{a.Score, b.Score},
	}
	for _, f := range floats {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return a.Workload == b.Workload && a.Spec == b.Spec &&
		a.GranularityUops == b.GranularityUops && a.Intervals == b.Intervals &&
		reflect.DeepEqual(a.Mispredicts, b.Mispredicts)
}
