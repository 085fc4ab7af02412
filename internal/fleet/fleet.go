// Package fleet is the concurrent run engine behind the repo's sweeps:
// it spreads governed-run specs over a bounded worker pool (Map) and
// returns typed results in spec order, while guaranteeing that the
// numbers are bit-identical to a serial execution.
//
// Play runs each spec as a replay over a machine table of its trace, a
// view shared by the specs over that trace (governor.Replay), and
// applies a caller's reduction to each replay on the worker that set it
// up; the replay's records are storage the engine reuses for its next
// replay, so a sweep holds at most Workers record buffers however many
// specs it has. Runs a table cannot replay — a DAQ, thermal or
// actuator run — go through governor.RunContext instead.
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
// cancellation (through Replay.Run), a workload-trace cache shared by
// the engine's runs, and live telemetry through the same
// *telemetry.Hub the rest of the pipeline reports to, into which every
// replay folds its intervals.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
	// gauge. One lock covers the count and the gauge write, so the
	// gauge's last write is the current count, never a stale one.
	pendingMu sync.Mutex
	pending   int64 // guarded by pendingMu

	// records is the engine's free list of replay-record storage: a
	// worker takes one buffer per replay and returns it once the
	// replay's reduction has returned, so the engine allocates one only
	// when every buffer it has is in use (or too small) and never
	// zeroes, frees and re-faults one per replay.
	records freeList
}

// freeList is a free list of reusable replay-record buffers.
type freeList struct {
	mu   sync.Mutex
	bufs []*[]governor.Record
}

// take hands a worker a buffer from the list, or a new empty one when
// every buffer is in use.
func (l *freeList) take() *[]governor.Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.bufs)
	if n == 0 {
		return new([]governor.Record)
	}
	buf := l.bufs[n-1]
	l.bufs = l.bufs[:n-1]
	return buf
}

// put returns a worker's buffer to the list.
func (l *freeList) put(buf *[]governor.Record) {
	l.mu.Lock()
	l.bufs = append(l.bufs, buf)
	l.mu.Unlock()
}

// New builds an engine.
func New(cfg Config) *Engine {
	traces := cfg.Traces
	if traces == nil {
		traces = wcache.New(wcache.Config{Telemetry: cfg.Telemetry})
	}
	return &Engine{cfg: cfg, traces: traces}
}

// Play runs every spec on the engine's worker pool as a replay over a
// machine.Table of its workload trace (governor.NewReplay), and applies
// f to each spec's replay on the worker that set it up: f advances the
// replay with Replay.Run and reduces what it reads. f is called at
// most once per spec — not for a spec that failed to set up or was
// canceled before it started, whose T stays the zero value — and must
// be safe to call concurrently. The replay's records are storage the
// engine reuses for a later replay once f returns, so Records is valid
// only inside f, like bufio.Scanner.Bytes: f must copy what it keeps
// of them.
//
// A table stores nothing per interval: its replays evaluate each
// interval from the trace as they reach it. Specs over the same trace
// share one table, so the trace is validated once, when the first of
// them starts. A spec the table or the replay refuses (see
// machine.NewTable and governor.NewReplay) fails with that error;
// nothing falls back to the full machine.
//
// The reductions come back in spec order. The returned error is
// ctx.Err() if the sweep was canceled, else the lowest-index failure —
// a spec that failed to set up, or whose f returned an error — else
// nil; the full reduction slice is returned either way so partial
// sweeps stay inspectable.
func Play[T any](ctx context.Context, e *Engine, specs []Spec, f func(Spec, *governor.Replay) (T, error)) ([]T, error) {
	resolved := make([]Spec, len(specs))
	tables := make([]*traceTable, len(specs))
	byTrace := make(map[Spec]*traceTable)
	for i, sp := range specs {
		sp = e.resolve(sp)
		resolved[i] = sp
		key := Spec{Workload: sp.Workload, Seed: sp.Seed, Intervals: sp.Intervals, GranularityUops: sp.GranularityUops}
		if byTrace[key] == nil {
			byTrace[key] = new(traceTable)
		}
		tables[i] = byTrace[key]
	}
	e.addPending(len(specs))
	out, err := mapIndex(e.cfg.Workers, len(resolved), func(i int) (T, error) {
		defer e.addPending(-1)
		// Drop the sweep's reference to this spec's table, so a trace's
		// table, and through it the trace, is garbage once the trace's
		// last spec is done, even if the trace cache has let it go.
		tt := tables[i]
		tables[i] = nil
		recs := e.records.take()
		defer e.records.put(recs)
		sp := resolved[i]
		var out T
		err := e.observe(ctx, func() error {
			rp, err := e.replay(sp, tt, *recs)
			if err != nil {
				return err
			}
			out, err = f(sp, rp)
			*recs = rp.Records()
			return err
		})
		if err != nil {
			err = fmt.Errorf("fleet: spec %d (%s under %s): %w", i, sp.Workload, sp.Policy, err)
		}
		return out, err
	})
	if cerr := ctx.Err(); cerr != nil {
		return out, cerr
	}
	return out, err
}

// traceTable is one trace's machine table, shared by the specs of a
// Play sweep that run over the trace.
type traceTable struct {
	once sync.Once
	tab  *machine.Table
	err  error
}

// get returns the table of trace, building it on first use.
func (tt *traceTable) get(trace *wcache.Trace, gran uint64) (*machine.Table, error) {
	tt.once.Do(func() { tt.tab, tt.err = machine.NewTable(trace.Works(), gran) })
	return tt.tab, tt.err
}

// resolve fills a spec's derived fields so seeding and execution see
// the same canonical value.
func (e *Engine) resolve(sp Spec) Spec {
	sp.Seed = sp.EffectiveSeed(e.cfg.BaseSeed)
	if sp.GranularityUops == 0 {
		sp.GranularityUops = kernelsim.DefaultGranularityUops
	}
	return sp
}

// addPending moves the queue-depth gauge.
func (e *Engine) addPending(delta int) {
	e.pendingMu.Lock()
	defer e.pendingMu.Unlock()
	e.pending += int64(delta)
	if tel := e.cfg.Telemetry; tel != nil {
		tel.FleetQueueDepth.Set(float64(e.pending))
	}
}

// observe runs one resolved spec's work with the run lifecycle
// telemetry around it, unless the sweep is already canceled.
func (e *Engine) observe(ctx context.Context, run func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tel := e.cfg.Telemetry
	if tel != nil {
		tel.FleetStarted.Inc()
	}
	start := time.Now()
	err := run()
	if tel != nil {
		tel.FleetRunSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			tel.FleetFailed.Inc()
		} else {
			tel.FleetCompleted.Inc()
		}
	}
	return err
}

// replay sets one resolved spec up as a replay over its trace's shared
// table, its records stored in recs: it reads the trace from the
// engine's cache and builds the governor configuration (classifier,
// bounded translation, telemetry) and policy the spec runs under.
func (e *Engine) replay(sp Spec, tt *traceTable, recs []governor.Record) (*governor.Replay, error) {
	cfg := governor.Config{GranularityUops: sp.GranularityUops, Telemetry: e.cfg.Telemetry}
	prof, err := workload.ByName(sp.Workload)
	if err != nil {
		return nil, err
	}
	var tab *phase.Table
	if sp.Phases != "" {
		if tab, err = phase.ParseTable("custom", sp.Phases); err != nil {
			return nil, err
		}
		cfg.Classifier = tab
	}
	trace := e.traces.Get(prof, workload.Params{
		GranularityUops: float64(sp.GranularityUops),
		Seed:            sp.Seed,
		Intervals:       sp.Intervals,
	})
	if sp.Bound > 0 {
		if cfg.Translation, err = BoundedTranslation(sp.Bound, tab); err != nil {
			return nil, err
		}
	}
	pol, err := policyFor(sp, trace.Generator(), cfg.Classifier)
	if err != nil {
		return nil, err
	}
	mt, err := tt.get(trace, sp.GranularityUops)
	if err != nil {
		return nil, err
	}
	return governor.NewReplay(mt, pol, cfg, recs)
}

// BoundedTranslation derives the Section 6.3 conservative translation
// a spec's Bound selects over the phase table tab (nil for the
// paper's Table 1): settings chosen so the model's worst-case slowdown
// stays under the bound, derived at a pessimistic memory-level
// parallelism of 2 and the core's peak UPC of 1.5.
func BoundedTranslation(bound float64, tab *phase.Table) (*dvfs.Translation, error) {
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
