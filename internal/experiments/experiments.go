// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment has a structured result type
// (consumed by tests and benchmarks) and a text rendering (consumed by
// cmd/experiments). The per-experiment mapping to paper artifacts is
// indexed in DESIGN.md; measured-vs-paper values are recorded in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"

	"phasemon/internal/core"
	"phasemon/internal/cpusim"
	"phasemon/internal/phase"
	"phasemon/internal/power"
	"phasemon/internal/wcache"
	"phasemon/internal/workload"
)

// Options scale the experiments. The zero value reproduces the paper
// configuration (full-length runs, seed 1).
type Options struct {
	// Intervals overrides every benchmark's run length; 0 keeps each
	// profile's default (3000 intervals ≈ 300G instructions). Tests
	// and benchmarks use smaller values.
	Intervals int
	// Seed drives the workload generators.
	Seed int64
	// Granularity is the sampling interval in uops; 0 selects the
	// paper's 100M.
	Granularity float64
	// Workers bounds how many runs a figure executes concurrently on
	// fleet.Map: benchmarks in the prediction figures (3-5), governed
	// runs in the management figures (11-13) and the summaries built
	// on them; 0 selects GOMAXPROCS. The worker count never changes
	// results, only wall time.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Granularity <= 0 {
		o.Granularity = 100e6
	}
	return o
}

func (o Options) params() workload.Params {
	return workload.Params{
		GranularityUops: o.Granularity,
		Seed:            o.Seed,
		Intervals:       o.Intervals,
	}
}

// Runner is one registered experiment.
type Runner struct {
	// Name is the registry key ("table1", "fig4", ...).
	Name string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment and renders its report to w.
	Run func(o Options, w io.Writer) error
}

// Registry returns all experiments in paper order.
func Registry() []Runner {
	return []Runner{
		{"table1", "Table 1: definition of phases based on Mem/Uop rates", runTable1},
		{"table2", "Table 2: translation of phases to DVFS settings", runTable2},
		{"fig2", "Figure 2: actual and predicted phases for applu", runFigure2},
		{"fig3", "Figure 3: benchmark stability vs power-saving potential", runFigure3},
		{"fig4", "Figure 4: phase prediction accuracies, all predictors", runFigure4},
		{"fig5", "Figure 5: GPHT accuracy vs PHT size", runFigure5},
		{"fig6", "Figure 6: (UPC, Mem/Uop) exploration space and IPCxMEM grid", runFigure6},
		{"fig7", "Figure 7: UPC and Mem/Uop vs frequency (DVFS invariance)", runFigure7},
		{"fig10", "Figure 10: applu under GPHT management vs baseline", runFigure10},
		{"fig11", "Figure 11: normalized BIPS/power/EDP, all benchmarks", runFigure11},
		{"fig12", "Figure 12: EDP improvement and degradation, GPHT vs reactive", runFigure12},
		{"fig13", "Figure 13: conservative phase definitions (5% bound)", runFigure13},
		{"headline", "Headline numbers quoted in the abstract and Section 6", runHeadline},
		{"compare", "Reproduction scorecard: paper vs measured, with pass criteria", runCompare},
	}
}

// Lookup finds a runner by name.
func Lookup(name string) (Runner, error) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// model returns the shared timing model instance.
func model() *cpusim.Model { return cpusim.New(cpusim.DefaultConfig()) }

// defaultPowerModel returns the default platform power model, used to
// reconstruct per-interval powers from kernel-log entries.
func defaultPowerModel() *power.Model { return power.Default() }

// traces is the shared workload-trace cache: several experiments walk
// the same benchmark/seed/length streams (fig2 and fig4 both replay
// applu; fig4, fig5 and the headline all sweep the full suite), so
// materializing each trace once serves them all.
var traces = wcache.New(wcache.Config{})

// observations collects a benchmark's observation stream at the top
// frequency under the default phase definitions. Because the phase
// metric is DVFS-invariant, this stream is what any predictor would
// see regardless of management.
func observations(p *workload.Profile, o Options) ([]core.Observation, error) {
	works := traces.Get(p, o.params()).Works()
	return core.ObservationsFromWork(model(), works, phase.Default(), 1.5e9)
}

// pct renders a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%6.1f%%", f*100) }

// phaseLabel renders a phase ID for tables.
func phaseLabel(id phase.ID) string { return id.String() }
