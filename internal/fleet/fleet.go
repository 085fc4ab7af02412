// Package fleet is the concurrent run engine behind the repo's sweeps:
// it spreads governed-run specs over a bounded worker pool (Map) and
// returns typed results in spec order, while guaranteeing that the
// numbers are bit-identical to a serial execution.
//
// The determinism contract has three legs:
//
//   - per-spec seeding: every spec resolves its own generator seed
//     (Spec.EffectiveSeed) before any worker touches it, so no run's
//     input depends on scheduling;
//   - fresh state per run: policies rebuild their predictor for every
//     run, so no predictor state leaks between concurrent runs;
//   - indexed results: each result lands at its spec's index, so
//     aggregation orders by index, not by completion.
//
// On top sit the operational concerns a long sweep needs: context
// cancellation (through governor.RunContext), a workload-trace cache
// shared by the engine's runs, and live telemetry through the same
// *telemetry.Hub the rest of the pipeline reports to.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wcache"
	"phasemon/internal/workload"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds run concurrency; values below 1 select
	// runtime.GOMAXPROCS(0). The worker count never affects results,
	// only wall time.
	Workers int
	// BaseSeed seeds specs that carry no seed of their own (see
	// Spec.EffectiveSeed); 0 selects 1.
	BaseSeed int64
	// Telemetry, when non-nil, observes the sweep live: run lifecycle
	// counters, queue depth, and per-run wall-time distribution, plus
	// the usual monitor/DVFS instrumentation inside each run. Nil runs
	// unobserved.
	Telemetry *telemetry.Hub
}

// Engine executes spec sweeps. An Engine is safe for concurrent use.
type Engine struct {
	cfg Config

	// traces shares materialized workload streams across the engine's
	// runs. A cached trace is exactly what the generator would emit, so
	// results are bit-identical to synthesizing per run.
	traces *wcache.Cache

	// pending counts accepted-but-unfinished specs for the queue-depth
	// gauge.
	pending atomic.Int64
}

// New builds an engine.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:    cfg,
		traces: wcache.New(wcache.Config{Telemetry: cfg.Telemetry}),
	}
}

// RunAll runs every spec on the worker pool and returns one Result
// per spec, in spec order. The returned error is ctx.Err() if the
// sweep was canceled, else the lowest-index run failure, else nil; the
// full result slice is returned either way so partial sweeps stay
// inspectable.
func (e *Engine) RunAll(ctx context.Context, specs []Spec) ([]Result, error) {
	resolved := make([]Spec, len(specs))
	for i, sp := range specs {
		resolved[i] = e.resolve(sp)
	}
	e.addPending(len(specs))
	// runOne reports failures in Result.Err, so Map's error is always
	// nil; the lowest-index failure is picked below, with its index.
	results, _ := Map(e.cfg.Workers, resolved, func(sp Spec) (Result, error) {
		defer e.addPending(-1)
		return e.runOne(ctx, sp), nil
	})
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for i, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("fleet: spec %d (%s under %s): %w",
				i, r.Spec.Workload, r.Spec.Policy, r.Err)
		}
	}
	return results, nil
}

// resolve fills a spec's derived fields so seeding and execution see
// the same canonical value.
func (e *Engine) resolve(sp Spec) Spec {
	sp.Seed = sp.EffectiveSeed(e.cfg.BaseSeed)
	if sp.GranularityUops == 0 {
		sp.GranularityUops = 100_000_000
	}
	return sp
}

// addPending moves the queue-depth gauge.
func (e *Engine) addPending(delta int) {
	v := e.pending.Add(int64(delta))
	if tel := e.cfg.Telemetry; tel != nil {
		tel.FleetQueueDepth.Set(float64(v))
	}
}

// runOne executes one resolved spec, unless the sweep is already
// canceled.
func (e *Engine) runOne(ctx context.Context, sp Spec) Result {
	if err := ctx.Err(); err != nil {
		return Result{Spec: sp, Err: err}
	}
	tel := e.cfg.Telemetry
	if tel != nil {
		tel.FleetStarted.Inc()
	}
	start := time.Now()
	res, err := runSpec(ctx, sp, tel, e.traces)
	if tel != nil {
		tel.FleetRunSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			tel.FleetFailed.Inc()
		} else {
			tel.FleetCompleted.Inc()
		}
	}
	if err != nil {
		return Result{Spec: sp, Err: err}
	}
	return Result{Spec: sp, Res: res}
}

// runSpec materializes and executes one resolved spec: workload
// profile, classifier, generator, translation, policy, governed run.
// The trace cache supplies the shared, read-only workload stream.
func runSpec(ctx context.Context, sp Spec, tel *telemetry.Hub, traces *wcache.Cache) (*governor.Result, error) {
	prof, err := workload.ByName(sp.Workload)
	if err != nil {
		return nil, err
	}
	var tab *phase.Table
	if sp.Phases != "" {
		tab, err = phase.ParseTable("custom", sp.Phases)
		if err != nil {
			return nil, err
		}
	}
	params := workload.Params{
		GranularityUops: float64(sp.GranularityUops),
		Seed:            sp.Seed,
		Intervals:       sp.Intervals,
	}
	intervals := sp.Intervals
	if intervals <= 0 {
		intervals = prof.DefaultIntervals
	}
	gen := traces.Get(prof, params).Generator()
	cfg := governor.Config{
		GranularityUops: sp.GranularityUops,
		// The run logs exactly one entry per interval; sizing the kernel
		// log to that count (clamped to the module's default bound, so
		// ring semantics are unchanged) makes the PMI path allocation-free.
		LogCapacity: min(intervals, 65536),
		Telemetry:   tel,
	}
	if tab != nil {
		cfg.Classifier = tab
	}
	if sp.Bound > 0 {
		tr, err := boundedTranslation(sp.Bound, tab)
		if err != nil {
			return nil, err
		}
		cfg.Translation = tr
	}
	pol, err := policyFor(sp, gen, cfg.Classifier)
	if err != nil {
		return nil, err
	}
	return governor.RunContext(ctx, gen, pol, cfg)
}

// boundedTranslation derives the Section 6.3 conservative translation:
// settings chosen so the model's worst-case slowdown stays under the
// bound, derived at a pessimistic memory-level parallelism of 2 and
// the core's peak UPC of 1.5.
func boundedTranslation(bound float64, tab *phase.Table) (*dvfs.Translation, error) {
	if tab == nil {
		tab = phase.Default()
	}
	m := cpusim.New(cpusim.DefaultConfig())
	slow := func(mem, coreUPC, f, fmax float64) float64 {
		return m.SlowdownMLP(mem, coreUPC, 2.0, f, fmax)
	}
	return dvfs.DeriveBounded(dvfs.PentiumM(), tab, slow, bound, 1.5)
}

// policyFor resolves the spec's policy string, special-casing the
// oracle: its "future" is the workload's phase trace, which only the
// engine (holding the generator) can precompute.
func policyFor(sp Spec, gen workload.Generator, cls phase.Classifier) (governor.Policy, error) {
	pol, err := governor.PolicyFromSpec(sp.Policy)
	if err == nil {
		return pol, nil
	}
	if errors.Is(err, governor.ErrOracleFuture) {
		future, ferr := governor.FuturePhases(gen, cls, machine.New(machine.Config{}))
		if ferr != nil {
			return nil, ferr
		}
		return governor.Oracle(future), nil
	}
	return nil, err
}
