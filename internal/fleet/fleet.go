// Package fleet is the concurrent run engine behind the repo's sweeps:
// it spreads governed-run specs over a bounded worker pool (Map) and
// returns typed results in spec order, while guaranteeing that the
// numbers are bit-identical to a serial execution.
//
// Reduce runs each spec on the full machine (governor.RunContext) and
// applies a caller's reduction to each run on the worker that ran it;
// the run's kernel log is storage the engine reuses for its next run,
// so a sweep holds at most Workers kernel logs however many specs it
// has. RunAll is Reduce with a reduction that copies each log out.
// Play runs each spec instead as a replay over a machine table of its
// trace, shared by the specs over that trace (governor.Replay).
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
// cancellation (through governor.RunContext and Replay.Run), a
// workload-trace cache shared by the engine's runs, and live telemetry
// through the same *telemetry.Hub the rest of the pipeline reports to.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
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

	// logs and records are the engine's free lists of kernel-log and
	// replay-record storage: a worker takes one buffer per run and
	// returns it once the run's reduction has returned, so the engine
	// allocates one only when every buffer it has is in use (or too
	// small) and never zeroes, frees and re-faults one per run.
	logs    freeList[kernelsim.Entry]
	records freeList[governor.Record]
}

// freeList is a free list of reusable slice buffers.
type freeList[T any] struct {
	mu   sync.Mutex
	bufs []*[]T
}

// take hands a worker a buffer from the list, or a new empty one when
// every buffer is in use.
func (l *freeList[T]) take() *[]T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.bufs)
	if n == 0 {
		return new([]T)
	}
	buf := l.bufs[n-1]
	l.bufs = l.bufs[:n-1]
	return buf
}

// put returns a worker's buffer to the list.
func (l *freeList[T]) put(buf *[]T) {
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

// RunAll runs every spec on the worker pool and returns one Result
// per spec, in spec order, each with its full governor.Result. It is
// the one caller that keeps kernel logs past its reduction, so it
// copies each run's log out of the engine's storage, once. Callers
// that need only a summary of each run should Reduce instead.
//
//lint:unusedexport the one retaining form of Reduce, which the fleet, tournament, experiments and dvfsgov tests share instead of each copying logs out of the engine
func (e *Engine) RunAll(ctx context.Context, specs []Spec) ([]Result, error) {
	return Reduce(ctx, e, specs, func(r Result) Result {
		if r.Res != nil && r.Res.Log != nil {
			r.Res.Log = slices.Clone(r.Res.Log)
		}
		return r
	})
}

// Reduce runs every spec on the engine's worker pool and applies f to
// each spec's Result on the worker that produced it. f is called
// exactly once per spec, failed and canceled runs included (their
// Result carries Err and a nil Res), and must be safe to call
// concurrently.
//
// The run's kernel log is storage the engine reuses for a later run
// once f returns, so Res.Log is valid only inside f, like
// bufio.Scanner.Bytes: f must copy what it keeps of it. The rest of
// the Result stays valid.
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
		log := e.logs.take()
		defer e.logs.put(log)
		r := Result{Spec: resolved[i]}
		r.Err = e.observe(ctx, func() (err error) {
			r.Res, err = e.runSpec(ctx, r.Spec, log)
			return err
		})
		var err error
		if r.Err != nil {
			r.Res = nil
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

// Play runs every spec on the engine's worker pool as a replay over a
// machine.Table of its workload trace (governor.NewReplay), and applies
// f to each spec's replay on the worker that set it up: f advances the
// replay with Replay.Run and reduces what it reads. f is called at
// most once per spec — not for a spec that failed to set up or was
// canceled before it started — and must be safe to call concurrently.
// The replay's records are storage the engine reuses for a later
// replay once f returns, so Records is valid only inside f, like
// Reduce's kernel logs.
//
// Specs over the same trace share one table, which their replays fill
// on demand. It is built when the first of them starts and dropped
// when the last finishes, so a sweep ordered trace by trace holds about
// Workers tables however many traces it covers. A spec the table or
// the replay refuses (see machine.NewTable and governor.NewReplay)
// fails with that error; nothing falls back to the full machine.
//
// Telemetry, the trace cache and the ordering and error contract are
// Reduce's; f's error fails its spec like a run error.
func Play[T any](ctx context.Context, e *Engine, specs []Spec, f func(Spec, *governor.Replay) (T, error)) ([]T, error) {
	resolved := make([]Spec, len(specs))
	tables := make([]*sharedTable, len(specs))
	byTrace := make(map[Spec]*sharedTable)
	for i, sp := range specs {
		sp = e.resolve(sp)
		resolved[i] = sp
		key := Spec{Workload: sp.Workload, Seed: sp.Seed, Intervals: sp.Intervals, GranularityUops: sp.GranularityUops}
		st := byTrace[key]
		if st == nil {
			st = new(sharedTable)
			byTrace[key] = st
		}
		st.users.Add(1)
		tables[i] = st
	}
	e.addPending(len(specs))
	out, err := mapIndex(e.cfg.Workers, len(resolved), func(i int) (T, error) {
		defer e.addPending(-1)
		defer tables[i].release()
		recs := e.records.take()
		defer e.records.put(recs)
		sp := resolved[i]
		var out T
		err := e.observe(ctx, func() error {
			rp, err := e.replay(sp, tables[i], *recs)
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

// sharedTable is one trace's machine table, shared by the specs of a
// Play sweep that run over the trace.
type sharedTable struct {
	once  sync.Once
	tab   *machine.Table
	err   error
	users atomic.Int64 // specs that have not finished with the table
}

// get returns the table of trace, building it on first use.
func (st *sharedTable) get(trace *wcache.Trace, gran uint64) (*machine.Table, error) {
	st.once.Do(func() { st.tab, st.err = machine.NewTable(trace.Works(), gran) })
	return st.tab, st.err
}

// release drops the table once its last spec is done with it.
func (st *sharedTable) release() {
	if st.users.Add(-1) == 0 {
		st.tab = nil
	}
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
	v := e.pending.Add(int64(delta))
	if tel := e.cfg.Telemetry; tel != nil {
		tel.FleetQueueDepth.Set(float64(v))
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

// runSpec executes one resolved spec on the full machine, with *log as
// the kernel log's storage, grown first if the run needs more.
func (e *Engine) runSpec(ctx context.Context, sp Spec, log *[]kernelsim.Entry) (*governor.Result, error) {
	trace, gen, cfg, pol, err := e.setup(sp)
	if err != nil {
		return nil, err
	}
	// The run logs exactly one entry per interval; bounding the kernel
	// log at that count (clamped to the module's default bound, so ring
	// semantics are unchanged) makes the PMI path allocation-free. A
	// larger reused buffer is re-sliced to the bound, which stays exact.
	n := min(trace.Len(), kernelsim.DefaultLogCapacity)
	if cap(*log) < n {
		*log = make([]kernelsim.Entry, 0, n)
	}
	cfg.Log = (*log)[:0:n]
	return governor.RunContext(ctx, gen, pol, cfg)
}

// replay sets one resolved spec up as a replay over its trace's shared
// table, its records stored in recs.
func (e *Engine) replay(sp Spec, st *sharedTable, recs []governor.Record) (*governor.Replay, error) {
	trace, _, cfg, pol, err := e.setup(sp)
	if err != nil {
		return nil, err
	}
	tab, err := st.get(trace, sp.GranularityUops)
	if err != nil {
		return nil, err
	}
	return governor.NewReplay(tab, pol, cfg, recs)
}

// setup materializes one resolved spec: its workload trace, from the
// engine's cache, a generator over it, and the governor configuration
// (classifier, bounded translation, telemetry) and policy it runs
// under.
func (e *Engine) setup(sp Spec) (*wcache.Trace, workload.Generator, governor.Config, governor.Policy, error) {
	cfg := governor.Config{GranularityUops: sp.GranularityUops, Telemetry: e.cfg.Telemetry}
	prof, err := workload.ByName(sp.Workload)
	if err != nil {
		return nil, nil, cfg, nil, err
	}
	var tab *phase.Table
	if sp.Phases != "" {
		tab, err = phase.ParseTable("custom", sp.Phases)
		if err != nil {
			return nil, nil, cfg, nil, err
		}
		cfg.Classifier = tab
	}
	trace := e.traces.Get(prof, workload.Params{
		GranularityUops: float64(sp.GranularityUops),
		Seed:            sp.Seed,
		Intervals:       sp.Intervals,
	})
	if sp.Bound > 0 {
		tr, err := boundedTranslation(sp.Bound, tab)
		if err != nil {
			return nil, nil, cfg, nil, err
		}
		cfg.Translation = tr
	}
	gen := trace.Generator()
	pol, err := policyFor(sp, gen, cfg.Classifier)
	if err != nil {
		return nil, nil, cfg, nil, err
	}
	return trace, gen, cfg, pol, nil
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
