package tournament

import (
	"context"
	"math"
	"reflect"
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

// TestSummaryScoringMatchesFullResults replays every round of two
// two-granularity tournaments — one with elimination, one keeping the
// whole field, whose cells score their early rounds on run prefixes —
// with full, standalone governor results for each round, and scores
// each cell with referenceScoreCell: every CellScore field must equal
// the tournament's, floats compared bit for bit.
func TestSummaryScoringMatchesFullResults(t *testing.T) {
	g := Grid{
		Workloads:     []string{"applu_in", "gzip_graphic"},
		Specs:         []string{"lastvalue", "reactive", "gpht_4_64", "markov_2", "dtree_4"},
		Granularities: []uint64{100_000_000, 50_000_000},
		Intervals:     48,
	}
	for _, cfg := range []Config{
		{Grid: g, Rounds: 2, TopK: 3, Workers: 2},
		{Grid: g, Rounds: 3, TopK: 0, Workers: 2},
	} {
		lb := runTournament(t, cfg)
		if len(lb.Rounds) != cfg.Rounds {
			t.Fatalf("top %d: %d rounds, want %d", cfg.TopK, len(lb.Rounds), cfg.Rounds)
		}
		if cfg.TopK > 0 && len(lb.Rounds[1].Cells) != 2*3*2 {
			t.Fatalf("top %d: %d cells in the second round, want 12", cfg.TopK, len(lb.Rounds[1].Cells))
		}
		replayRounds(t, cfg.Grid.withDefaults(), lb)
	}
}

// replayRounds runs each of the leaderboard's rounds standalone, one
// full governor result per baseline and cell, and checks the round's
// scores against referenceScoreCell.
func replayRounds(t *testing.T, g Grid, lb *Leaderboard) {
	t.Helper()
	numPhases := phase.Default().NumPhases()
	engine := fleet.New(fleet.Config{Workers: 2, BaseSeed: g.Seed})
	for _, round := range lb.Rounds {
		var specs []fleet.Spec
		for _, w := range g.Workloads {
			for _, gr := range g.Granularities {
				specs = append(specs, fleet.Spec{Workload: w, Policy: "baseline", Intervals: round.Intervals, GranularityUops: gr})
			}
		}
		nBase := len(specs)
		for _, cs := range round.Cells {
			specs = append(specs, fleet.Spec{Workload: cs.Workload, Policy: cs.Spec, Intervals: round.Intervals, GranularityUops: cs.GranularityUops})
		}
		full, err := engine.RunAll(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cs := range round.Cells {
			cell := Cell{Workload: cs.Workload, Spec: cs.Spec, GranularityUops: cs.GranularityUops}
			var base *governor.Result
			for _, r := range full[:nBase] {
				if r.Spec.Workload == cell.Workload && r.Spec.GranularityUops == cell.GranularityUops {
					base = r.Res
				}
			}
			want := referenceScoreCell(cell, round.Intervals, numPhases, full[nBase+i].Res, base)
			if !sameCellScore(cs, want) {
				t.Errorf("round %d cell %+v:\n got  %+v\n want %+v", round.Round, cell, cs, want)
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
