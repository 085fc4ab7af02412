package tournament

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"phasemon/internal/fleet"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
)

func errUnknownSchema(v int) error {
	return fmt.Errorf("tournament: unknown leaderboard schema version %d (want %d)", v, SchemaVersion)
}

// Config parameterizes a tournament.
type Config struct {
	// Grid is the opening field. Required (Validate must pass).
	Grid Grid
	// Rounds is how many elimination rounds to play; each round after
	// the first doubles the per-cell run length. Values below 1 select
	// a single round.
	Rounds int
	// TopK is how many specs survive each round; values below 1 keep
	// the whole field (ranking without elimination).
	TopK int
	// Workers bounds fleet concurrency; values below 1 select
	// GOMAXPROCS. Never affects the leaderboard bytes, only wall time.
	Workers int
	// Telemetry, when non-nil, observes the tournament live (cells
	// scored, rounds completed, specs eliminated) on top of the usual
	// fleet and run instrumentation. Nil runs unobserved.
	Telemetry *telemetry.Hub
}

// Run plays the tournament to completion and returns its leaderboard.
//
// Each round runs one baseline cell per (workload, granularity) plus
// one managed cell per (workload, surviving spec, granularity) through
// the fleet engine, scores every managed cell against its baseline,
// ranks the specs by mean composite score, and eliminates all but the
// top K. The next round doubles the interval count, so survivors are
// re-examined on longer, harder streams.
//
// Determinism: the fleet engine makes every run bit-identical at any
// worker count, and the reduction here is pure arithmetic over
// deterministically ordered slices, so Run's leaderboard — and its
// Encode bytes — are a function of the grid alone.
func Run(ctx context.Context, cfg Config) (*Leaderboard, error) {
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Grid.withDefaults()
	rounds := cfg.Rounds
	if rounds < 1 {
		rounds = 1
	}
	numPhases := phase.Default().NumPhases()
	engine := fleet.New(fleet.Config{
		Workers:   cfg.Workers,
		BaseSeed:  g.Seed,
		Telemetry: cfg.Telemetry,
	})

	lb := &Leaderboard{
		SchemaVersion: SchemaVersion,
		Grid: GridEcho{
			Workloads:     g.Workloads,
			Specs:         g.Specs,
			Granularities: g.Granularities,
			Intervals:     g.Intervals,
			Seed:          g.Seed,
		},
	}

	alive := append([]string(nil), g.Specs...)
	intervals := g.Intervals
	var finalCells []CellScore
	for round := 1; round <= rounds; round++ {
		cells, scores, err := playRound(ctx, engine, g, alive, intervals, numPhases)
		if err != nil {
			return nil, fmt.Errorf("tournament: round %d: %w", round, err)
		}
		standings := rank(scores, alive)
		keep := len(standings)
		if cfg.TopK > 0 && cfg.TopK < keep {
			keep = cfg.TopK
		}
		var eliminated []string
		for _, st := range standings[keep:] {
			eliminated = append(eliminated, st.Spec)
		}
		lb.Rounds = append(lb.Rounds, Round{
			Round:      round,
			Intervals:  intervals,
			Cells:      scores,
			Standings:  standings,
			Eliminated: eliminated,
		})
		if tel := cfg.Telemetry; tel != nil {
			tel.TournamentCells.Add(uint64(len(cells)))
			tel.TournamentRounds.Inc()
			tel.TournamentEliminated.Add(uint64(len(eliminated)))
		}
		alive = alive[:0]
		for _, st := range standings[:keep] {
			alive = append(alive, st.Spec)
		}
		finalCells = scores
		intervals *= 2
	}

	last := lb.Rounds[len(lb.Rounds)-1]
	lb.Overall = last.Standings
	if len(lb.Overall) > 0 {
		lb.Winner = lb.Overall[0].Spec
	}
	lb.PerWorkload = perWorkloadBoards(g.Workloads, finalCells)
	return lb, nil
}

// playRound executes one round's grid and scores every managed cell
// against its (workload, granularity) baseline. Each run is reduced to
// its runSummary on the fleet worker that ran it, so no run's kernel
// log outlives the run.
func playRound(ctx context.Context, engine *fleet.Engine, g Grid, alive []string, intervals, numPhases int) ([]Cell, []CellScore, error) {
	specs, cells := roundSpecs(g, alive, intervals)
	nBase := len(specs) - len(cells)
	runs, err := fleet.Reduce(ctx, engine, specs, summarize(numPhases))
	if err != nil {
		return nil, nil, err
	}
	scores := make([]CellScore, len(cells))
	for i, cell := range cells {
		scores[i] = scoreCell(cell, intervals, runs[nBase+i], runs[baselineIndex(g, cell)])
	}
	return cells, scores, nil
}

// roundSpecs lays out one round's fleet specs: one baseline per
// (workload, granularity) first, at baselineIndex, then one managed
// run per cell, in cell order.
func roundSpecs(g Grid, alive []string, intervals int) ([]fleet.Spec, []Cell) {
	var specs []fleet.Spec
	for _, w := range g.Workloads {
		for _, gr := range g.Granularities {
			specs = append(specs, fleet.Spec{
				Workload:        w,
				Policy:          "baseline",
				Intervals:       intervals,
				GranularityUops: gr,
			})
		}
	}
	cells := make([]Cell, 0, len(g.Workloads)*len(alive)*len(g.Granularities))
	for _, w := range g.Workloads {
		for _, s := range alive {
			for _, gr := range g.Granularities {
				cells = append(cells, Cell{Workload: w, Spec: s, GranularityUops: gr})
				specs = append(specs, fleet.Spec{
					Workload:        w,
					Policy:          s,
					Intervals:       intervals,
					GranularityUops: gr,
				})
			}
		}
	}
	return specs, cells
}

// baselineIndex is the position in roundSpecs of the cell's
// (workload, granularity) baseline.
func baselineIndex(g Grid, cell Cell) int {
	wi := slices.Index(g.Workloads, cell.Workload)
	gi := slices.Index(g.Granularities, cell.GranularityUops)
	return wi*len(g.Granularities) + gi
}

// rank reduces cell scores to per-spec standings: mean score,
// accuracy, and EDP improvement over every cell the spec ran, sorted
// best first with ties broken by spec name so equal-scoring specs
// order identically everywhere.
func rank(scores []CellScore, specs []string) []Standing {
	standings := make([]Standing, 0, len(specs))
	for _, s := range specs {
		st := Standing{Spec: s}
		var score, acc, edp float64
		for _, cs := range scores {
			if cs.Spec != s {
				continue
			}
			st.Cells++
			score += cs.Score
			acc += cs.Accuracy
			edp += cs.EDPImprovement
		}
		if st.Cells > 0 {
			n := float64(st.Cells)
			st.Score = score / n
			st.Accuracy = acc / n
			st.EDPImprovement = edp / n
		}
		standings = append(standings, st)
	}
	sortStandings(standings)
	return standings
}

// sortStandings orders best-first (score descending, spec name
// ascending on ties) and assigns 1-based ranks.
func sortStandings(standings []Standing) {
	sort.SliceStable(standings, func(i, j int) bool {
		if standings[i].Score != standings[j].Score { //lint:floateq exact tie detection for a deterministic sort key
			return standings[i].Score > standings[j].Score
		}
		return standings[i].Spec < standings[j].Spec
	})
	for i := range standings {
		standings[i].Rank = i + 1
	}
}

// perWorkloadBoards slices the final round's cells into one ranked
// board per workload, in the grid's workload order.
func perWorkloadBoards(workloads []string, cells []CellScore) []WorkloadBoard {
	out := make([]WorkloadBoard, 0, len(workloads))
	for _, w := range workloads {
		var specs []string
		seen := map[string]bool{}
		var sub []CellScore
		for _, cs := range cells {
			if cs.Workload != w {
				continue
			}
			sub = append(sub, cs)
			if !seen[cs.Spec] {
				seen[cs.Spec] = true
				specs = append(specs, cs.Spec)
			}
		}
		out = append(out, WorkloadBoard{Workload: w, Standings: rank(sub, specs)})
	}
	return out
}
