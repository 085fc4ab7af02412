// Package tournament races predictor specs against each other across a
// (workload × granularity × predictor) grid and reduces the outcomes
// into ranked leaderboards, with round-based elimination growing the
// run length as the field narrows.
//
// The package sits on top of the fleet engine and inherits its
// determinism contract: every cell's governed run is bit-identical at
// any worker count, and the reduction here touches only deterministic
// inputs (never wall time, never map iteration order), so the rendered
// leaderboard artifact is byte-identical however the runs were
// scheduled.
package tournament

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"phasemon/internal/core"
	"phasemon/internal/governor"
	"phasemon/internal/workload"
)

// ErrGrid is the root of every grid parse/validation failure.
var ErrGrid = errors.New("tournament: bad grid")

// Grid is the tournament's opening field: the cross product of
// workloads, predictor specs, and sampling granularities.
type Grid struct {
	// Workloads names profiles from the workload registry.
	Workloads []string
	// Specs are governor policy strings racing each other — predictor
	// specs ("gpht_8_128", "markov_2", ...) or the named policies
	// ("reactive"). "baseline" is implicit (it anchors the scoring) and
	// may not be entered as a contestant.
	Specs []string
	// Granularities are sampling intervals in uops; empty selects the
	// paper's 100M.
	Granularities []uint64
	// Intervals is the first round's run length per cell; rounds after
	// the first double it. Zero selects DefaultIntervals.
	Intervals int
	// Seed is the fleet BaseSeed; zero selects DefaultSeed so two
	// tournaments over the same grid agree byte-for-byte by default.
	Seed int64
}

// Defaults for the zero-valued Grid fields.
const (
	DefaultIntervals   = 256
	DefaultSeed        = 1
	DefaultGranularity = 100_000_000
)

// Cell is one grid coordinate: a spec racing on a workload at a
// sampling granularity.
type Cell struct {
	Workload        string
	Spec            string
	GranularityUops uint64
}

// ParseGrid parses the phasearena -grid grammar: semicolon-separated
// key=value fields with comma-separated values,
//
//	workloads=applu_in,gzip_graphic;specs=gpht,markov_2;gran=100000000
//
// plus optional intervals=N and seed=N. Unknown keys are errors, so a
// typo cannot silently shrink the grid.
func ParseGrid(s string) (Grid, error) {
	g := Grid{}
	for _, field := range strings.Split(s, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Grid{}, fmt.Errorf("%w: field %q is not key=value", ErrGrid, field)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "workloads", "w":
			g.Workloads = splitList(val)
		case "specs", "p":
			g.Specs = splitList(val)
		case "gran", "g":
			for _, item := range splitList(val) {
				n, err := strconv.ParseUint(item, 10, 64)
				if err != nil || n == 0 {
					return Grid{}, fmt.Errorf("%w: granularity %q is not a positive uop count", ErrGrid, item)
				}
				g.Granularities = append(g.Granularities, n)
			}
		case "intervals", "i":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return Grid{}, fmt.Errorf("%w: intervals %q is not a positive count", ErrGrid, val)
			}
			g.Intervals = n
		case "seed", "s":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Grid{}, fmt.Errorf("%w: seed %q is not an integer", ErrGrid, val)
			}
			g.Seed = n
		default:
			return Grid{}, fmt.Errorf("%w: unknown key %q", ErrGrid, key)
		}
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// Validate checks every axis against its registry: workloads must
// exist, specs must resolve to policies, and duplicates are rejected
// (a duplicated contestant would double-count in the reduction).
func (g Grid) Validate() error {
	if len(g.Workloads) == 0 {
		return fmt.Errorf("%w: no workloads", ErrGrid)
	}
	if len(g.Specs) == 0 {
		return fmt.Errorf("%w: no predictor specs", ErrGrid)
	}
	seenW := make(map[string]bool, len(g.Workloads))
	for _, w := range g.Workloads {
		if seenW[w] {
			return fmt.Errorf("%w: workload %q listed twice", ErrGrid, w)
		}
		seenW[w] = true
		if _, err := workload.ByName(w); err != nil {
			return fmt.Errorf("%w: %v", ErrGrid, err)
		}
	}
	seenS := make(map[string]bool, len(g.Specs))
	for _, s := range g.Specs {
		if seenS[s] {
			return fmt.Errorf("%w: spec %q listed twice", ErrGrid, s)
		}
		seenS[s] = true
		if s == baselineSpec {
			return fmt.Errorf("%w: %q is the scoring anchor, not a contestant", ErrGrid, s)
		}
		if _, err := governor.PolicyFromSpec(s); err != nil && !errors.Is(err, governor.ErrOracleFuture) {
			return fmt.Errorf("%w: %v", ErrGrid, err)
		}
	}
	for _, n := range g.Granularities {
		if n == 0 {
			return fmt.Errorf("%w: zero granularity", ErrGrid)
		}
	}
	if g.Intervals < 0 {
		return fmt.Errorf("%w: negative intervals", ErrGrid)
	}
	return nil
}

// withDefaults fills the zero-valued knobs.
func (g Grid) withDefaults() Grid {
	if len(g.Granularities) == 0 {
		g.Granularities = []uint64{DefaultGranularity}
	}
	if g.Intervals == 0 {
		g.Intervals = DefaultIntervals
	}
	if g.Seed == 0 {
		g.Seed = DefaultSeed
	}
	return g
}

// Cells expands the grid's cross product in canonical order: workload
// major, then spec, then granularity — the order every reduction and
// the leaderboard artifact rely on.
func (g Grid) Cells() []Cell {
	g = g.withDefaults()
	out := make([]Cell, 0, len(g.Workloads)*len(g.Specs)*len(g.Granularities))
	for _, w := range g.Workloads {
		for _, s := range g.Specs {
			for _, gr := range g.Granularities {
				out = append(out, Cell{Workload: w, Spec: s, GranularityUops: gr})
			}
		}
	}
	return out
}

// ZooSpecs returns one deployable contestant per registered predictor
// kind (skipping the oracle, which needs engine support and would win
// every round tautologically) — the "run the whole zoo" convenience
// behind phasearena's default grid.
func ZooSpecs() []string {
	var out []string
	for _, kind := range core.RegisteredPredictors() {
		if kind == "oracle" {
			continue
		}
		out = append(out, kind)
	}
	return out
}
