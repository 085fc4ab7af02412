// Package fleet is the concurrent run engine behind the repo's sweeps:
// it spreads governed-run specs over a bounded worker pool (Map) and
// returns typed results in spec order, while guaranteeing that the
// numbers are bit-identical to a serial execution.
//
// Reduce is the engine's one path: it applies a caller's reduction to
// each run on the worker that ran it, so a sweep that keeps only a
// summary of each run holds at most Workers kernel logs at once.
// RunAll is Reduce with the identity reduction.
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
	"phasemon/internal/kernelsim"
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
	// Traces, when non-nil, is the workload-trace cache the engine's
	// runs read, so several engines (or other consumers of the same
	// traces) can share one. Nil gives the engine a cache of its own,
	// reporting to Telemetry.
	Traces *wcache.Cache
}

// Engine executes spec sweeps. An Engine is safe for concurrent use.
type Engine struct {
	cfg Config

	// traces shares materialized workload streams across the engine's
	// runs (Config.Traces, or a cache of its own). A cached trace is
	// exactly what the generator would emit, so results are
	// bit-identical to synthesizing per run.
	traces *wcache.Cache

	// pending counts accepted-but-unfinished specs for the queue-depth
	// gauge.
	pending atomic.Int64
}

// New builds an engine.
func New(cfg Config) *Engine {
	traces := cfg.Traces
	if traces == nil {
		traces = wcache.New(wcache.Config{Telemetry: cfg.Telemetry})
	}
	return &Engine{cfg: cfg, traces: traces}
}

// RunAll runs every spec on the worker pool and returns one Result
// per spec, in spec order. It is Reduce with the identity reduction,
// so every run's full governor.Result, kernel log included, is kept;
// callers that need only a summary of each run should Reduce instead.
func (e *Engine) RunAll(ctx context.Context, specs []Spec) ([]Result, error) {
	return Reduce(ctx, e, specs, func(r Result) Result { return r })
}

// Reduce runs every spec on the engine's worker pool and applies f to
// each spec's Result on the worker that produced it, so a run's
// governor.Result (and its kernel log) becomes garbage as soon as f
// returns, before the worker takes its next spec. f is called exactly
// once per spec, failed and canceled runs included (their Result
// carries Err and a nil Res), and must be safe to call concurrently.
//
// The reductions come back in spec order. The returned error is
// ctx.Err() if the sweep was canceled, else the lowest-index run
// failure, else nil; the full reduction slice is returned either way
// so partial sweeps stay inspectable.
func Reduce[T any](ctx context.Context, e *Engine, specs []Spec, f func(Result) T) ([]T, error) {
	resolved := make([]Spec, len(specs))
	for i, sp := range specs {
		resolved[i] = e.resolve(sp)
	}
	e.addPending(len(specs))
	out, err := mapIndex(e.cfg.Workers, len(resolved), func(i int) (T, error) {
		defer e.addPending(-1)
		r := e.runOne(ctx, resolved[i])
		var err error
		if r.Err != nil {
			err = fmt.Errorf("fleet: spec %d (%s under %s): %w",
				i, r.Spec.Workload, r.Spec.Policy, r.Err)
		}
		return f(r), err
	})
	if cerr := ctx.Err(); cerr != nil {
		return out, cerr
	}
	return out, err
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
		LogCapacity: min(intervals, kernelsim.DefaultLogCapacity),
		Telemetry:   tel,
		Prefixes:    sp.prefixes(intervals),
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
