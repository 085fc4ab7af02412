package tournament

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"phasemon/internal/fleet"
	"phasemon/internal/governor"
	"phasemon/internal/kernelsim"
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
// The rounds share runs: the workload stream is one seeded sequence
// and every policy but the oracle decides from the past alone, so the
// first N intervals of a 2N-interval run are an N-interval run. Each
// cell therefore runs once, at the length of the last round it is sure
// to reach, and scores its earlier rounds on that run's prefixes (see
// player.cover).
//
// Determinism: the fleet engine makes every run bit-identical at any
// worker count, a prefix is bit-identical to the shorter run, and the
// reduction here is pure arithmetic over deterministically ordered
// slices, so Run's leaderboard — and its Encode bytes — are a function
// of the grid alone.
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
	// rounds still ahead that the slot's last run covered, the next
	// round's first.
	pending [][]runSummary
}

// cover is how many rounds, from round on, one run of a cell with the
// given spec plays: every round the cell is sure to reach, up to the
// kernel-log bound. A baseline is never eliminated; a managed cell is
// sure to reach the next round only when nothing can be eliminated.
// The oracle reads the future, so a prefix of its run is not a shorter
// run, and a round past the log bound would lose its prefixes' log
// entries: both play one round per run.
func (p *player) cover(round, intervals, alive int, spec string) int {
	if spec != baselineSpec && (governor.ReadsFuture(spec) || (p.topK >= 1 && p.topK < alive)) {
		return 1
	}
	c := 1
	for round+c <= p.rounds && intervals<<c <= kernelsim.DefaultLogCapacity {
		c++
	}
	return c
}

// playRound scores one round's cells, in alive's order, each against
// its (workload, granularity) baseline. Cells and baselines whose
// pending summaries ran out run now, each through the fleet engine at
// the length of the last round it covers, and each is reduced on the
// fleet worker that ran it to one runSummary per covered round, so no
// run's kernel log outlives the run.
func (p *player) playRound(ctx context.Context, round int, alive []string, intervals int) ([]Cell, []CellScore, error) {
	g := p.g
	nw, ng := len(g.Workloads), len(g.Granularities)
	nBase := nw * ng
	// A run's slot: one per (workload, granularity) baseline, then one
	// per (workload, spec, granularity) cell with the specs in the
	// grid's order, so a cell keeps its slot whatever the standings.
	keys := make([]Cell, 0, nBase*(1+len(alive)))
	slots := make([]int, 0, cap(keys))
	for wi, w := range g.Workloads {
		for gi, gr := range g.Granularities {
			keys = append(keys, Cell{Workload: w, Spec: baselineSpec, GranularityUops: gr})
			slots = append(slots, wi*ng+gi)
		}
	}
	for wi, w := range g.Workloads {
		for _, s := range alive {
			si := slices.Index(g.Specs, s)
			for gi, gr := range g.Granularities {
				keys = append(keys, Cell{Workload: w, Spec: s, GranularityUops: gr})
				slots = append(slots, nBase+(wi*len(g.Specs)+si)*ng+gi)
			}
		}
	}

	var ran []int
	var specs []fleet.Spec
	for i, k := range keys {
		if len(p.pending[slots[i]]) > 0 {
			continue
		}
		c := p.cover(round, intervals, len(alive), k.Spec)
		ran = append(ran, slots[i])
		specs = append(specs, fleet.Spec{
			Workload:        k.Workload,
			Policy:          k.Spec,
			Intervals:       intervals << (c - 1),
			GranularityUops: k.GranularityUops,
			Halvings:        c - 1,
		})
	}
	if len(specs) > 0 {
		sums, err := fleet.Reduce(ctx, p.engine, specs, summarize(p.numPhases))
		if err != nil {
			return nil, nil, err
		}
		for i, slot := range ran {
			p.pending[slot] = sums[i]
		}
	}

	cells := keys[nBase:]
	scores := make([]CellScore, len(cells))
	for i, cell := range cells {
		wi, gi := i/(len(alive)*ng), i%ng
		scores[i] = scoreCell(cell, intervals, p.pending[slots[nBase+i]][0], p.pending[wi*ng+gi][0])
	}
	for _, slot := range slots {
		p.pending[slot] = p.pending[slot][1:]
	}
	return cells, scores, nil
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
