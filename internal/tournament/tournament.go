package tournament

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"phasemon/internal/fleet"
	"phasemon/internal/governor"
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
// Each round scores one managed cell per (workload, surviving spec,
// granularity) against its (workload, granularity) baseline, ranks the
// specs by mean composite score, and eliminates all but the top K. The
// next round doubles the interval count, so survivors are re-examined
// on longer, harder streams.
//
// Every cell plays as a replay over a machine table of its workload
// trace (fleet.Play), shared by the cells over that trace, so the
// machine is tabulated once per trace instead of simulated once per
// cell. The rounds share replays too: the workload stream is one
// seeded sequence and every policy but the oracle decides from the
// past alone, so the first N intervals of a 2N-interval run are an
// N-interval run. Each cell therefore replays once, to the length of
// the last round it is sure to reach, and scores each earlier round at
// that round's length on the way (see player.cover).
//
// Determinism: a replay is bit-identical to the governed run over the
// full machine, at any worker count, a replay's first N intervals are
// bit-identical to the N-interval run, and the reduction here is pure
// arithmetic over deterministically ordered slices, so Run's
// leaderboard — and its Encode bytes — are a function of the grid
// alone.
func Run(ctx context.Context, cfg Config) (*Leaderboard, error) {
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Grid.withDefaults()
	rounds := cfg.Rounds
	if rounds < 1 {
		rounds = 1
	}
	p := &player{
		engine: fleet.New(fleet.Config{
			Workers:   cfg.Workers,
			BaseSeed:  g.Seed,
			Telemetry: cfg.Telemetry,
		}),
		g:         g,
		rounds:    rounds,
		topK:      cfg.TopK,
		numPhases: phase.Default().NumPhases(),
		pending:   make([][]runSummary, len(g.Workloads)*len(g.Granularities)*(1+len(g.Specs))),
	}

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
		cells, scores, err := p.playRound(ctx, round, alive, intervals)
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

// baselineSpec is the policy of the (workload, granularity) runs every
// managed cell is scored against.
const baselineSpec = "baseline"

// player plays a tournament's rounds on one fleet engine.
type player struct {
	engine    *fleet.Engine
	g         Grid
	rounds    int
	topK      int
	numPhases int
	// pending holds, per slot (see playRound), the summaries of the
	// rounds still ahead that the slot's last replay covered, the next
	// round's first.
	pending [][]runSummary
}

// cover is how many rounds, from round on, one replay of a cell with
// the given spec plays: every round the cell is sure to reach. A
// baseline is never eliminated; a managed cell is sure to reach the
// next round only when nothing can be eliminated. The oracle reads the
// future, so a prefix of its run is not a shorter run: it replays each
// round from interval 0 with that round's own future.
func (p *player) cover(round, alive int, spec string) int {
	if spec != baselineSpec && (governor.ReadsFuture(spec) || (p.topK >= 1 && p.topK < alive)) {
		return 1
	}
	return p.rounds - round + 1
}

// playRound scores one round's cells, in alive's order, each against
// its (workload, granularity) baseline. Cells and baselines whose
// pending summaries ran out replay now, to the length of the last
// round they cover, each reduced on the fleet worker that replayed it
// to one runSummary per covered round. They go to the fleet workload
// by workload and granularity by granularity, baseline first, so the
// replays over one trace share its table one after another and the
// table is dropped before the next trace's is built.
func (p *player) playRound(ctx context.Context, round int, alive []string, intervals int) ([]Cell, []CellScore, error) {
	g := p.g
	ng := len(g.Granularities)
	nBase := len(g.Workloads) * ng
	// A run's slot: one per (workload, granularity) baseline, then one
	// per (workload, spec, granularity) cell with the specs in the
	// grid's order, so a cell keeps its slot whatever the standings.
	cellSlot := func(wi int, spec string, gi int) int {
		return nBase + (wi*len(g.Specs)+slices.Index(g.Specs, spec))*ng + gi
	}

	var ran []int
	var specs []fleet.Spec
	for wi, w := range g.Workloads {
		for gi, gr := range g.Granularities {
			for _, spec := range append([]string{baselineSpec}, alive...) {
				slot := wi*ng + gi
				if spec != baselineSpec {
					slot = cellSlot(wi, spec, gi)
				}
				if len(p.pending[slot]) > 0 {
					continue
				}
				ran = append(ran, slot)
				specs = append(specs, fleet.Spec{
					Workload:        w,
					Policy:          spec,
					Intervals:       intervals << (p.cover(round, len(alive), spec) - 1),
					GranularityUops: gr,
				})
			}
		}
	}
	if len(specs) > 0 {
		sums, err := fleet.Play(ctx, p.engine, specs, p.play(ctx, intervals))
		if err != nil {
			return nil, nil, err
		}
		for i, slot := range ran {
			p.pending[slot] = sums[i]
		}
	}

	var cells []Cell
	var scores []CellScore
	for wi, w := range g.Workloads {
		for _, spec := range alive {
			for gi, gr := range g.Granularities {
				cell := Cell{Workload: w, Spec: spec, GranularityUops: gr}
				slot := cellSlot(wi, spec, gi)
				cells = append(cells, cell)
				scores = append(scores, scoreCell(cell, intervals, p.pending[slot][0], p.pending[wi*ng+gi][0]))
				p.pending[slot] = p.pending[slot][1:]
			}
		}
	}
	for slot := range nBase {
		p.pending[slot] = p.pending[slot][1:]
	}
	return cells, scores, nil
}

// play is the fleet reduction of one replay: it replays through every
// round the spec covers — intervals, doubling up to the spec's length —
// and reduces each round to its summary while the replay's table is in
// hand.
func (p *player) play(ctx context.Context, intervals int) func(fleet.Spec, *governor.Replay) ([]runSummary, error) {
	return func(sp fleet.Spec, rp *governor.Replay) ([]runSummary, error) {
		var out []runSummary
		for n := intervals; n <= sp.Intervals; n *= 2 {
			res, err := rp.Run(ctx, n)
			if err != nil {
				return nil, err
			}
			out = append(out, summarize(sp.Policy, res, rp, p.numPhases))
		}
		return out, nil
	}
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
