// Package governor assembles the complete deployed system of the
// paper's Section 5 — machine, kernel module, monitor, predictor, and
// DVFS translation — and runs workloads under different management
// policies:
//
//   - Unmanaged: the baseline system, pinned at the fastest operating
//     point (the paper's normalization reference).
//   - Reactive: last-value-driven management, the "previous methods"
//     of Section 6.2 — the next interval runs at the setting implied by
//     the last observed phase.
//   - Proactive: GPHT-guided management, the paper's contribution.
//   - Oracle: perfect-future management, an upper bound the paper does
//     not have (it requires knowing the future) but that is useful for
//     quantifying remaining headroom.
//
// Run results carry the power/performance aggregates from which every
// Section 6 figure is derived.
package governor

import (
	"context"
	"fmt"
	"sync"

	"phasemon/internal/core"
	"phasemon/internal/cpusim"
	"phasemon/internal/daq"
	"phasemon/internal/dvfs"
	"phasemon/internal/kernelsim"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/stats"
	"phasemon/internal/telemetry"
	"phasemon/internal/workload"
)

// Policy selects the management strategy for a run.
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// NewPredictor builds a fresh predictor for a run over a
	// classifier with numPhases phases.
	NewPredictor(numPhases int) (core.Predictor, error)
	// Managed reports whether the policy actuates DVFS; an unmanaged
	// policy still monitors (for accuracy accounting) but never leaves
	// the fastest setting.
	Managed() bool
}

type unmanaged struct{}

// Unmanaged returns the baseline policy: full speed, monitoring only.
func Unmanaged() Policy { return unmanaged{} }

func (unmanaged) Name() string                             { return "Baseline" }
func (unmanaged) NewPredictor(int) (core.Predictor, error) { return core.NewLastValue(), nil }
func (unmanaged) Managed() bool                            { return false }

type reactive struct{}

// Reactive returns last-value-driven management: the commonly-used
// approach that configures the processor for the last observed
// behavior.
func Reactive() Policy { return reactive{} }

func (reactive) Name() string                             { return "LastValue" }
func (reactive) NewPredictor(int) (core.Predictor, error) { return core.NewLastValue(), nil }
func (reactive) Managed() bool                            { return true }

type proactive struct {
	depth, entries int
	hysteresis     bool
}

// Proactive returns GPHT-guided management with the given predictor
// geometry (the paper deploys depth 8, 128 entries).
func Proactive(gphrDepth, phtEntries int) Policy {
	return proactive{depth: gphrDepth, entries: phtEntries}
}

// ProactiveHysteresis is Proactive with the 2-bit-style prediction
// update extension.
func ProactiveHysteresis(gphrDepth, phtEntries int) Policy {
	return proactive{depth: gphrDepth, entries: phtEntries, hysteresis: true}
}

func (p proactive) Name() string {
	if p.hysteresis {
		return fmt.Sprintf("GPHT_%d_%d_hyst", p.depth, p.entries)
	}
	return fmt.Sprintf("GPHT_%d_%d", p.depth, p.entries)
}

func (p proactive) NewPredictor(numPhases int) (core.Predictor, error) {
	return core.NewGPHT(core.GPHTConfig{
		GPHRDepth:  p.depth,
		PHTEntries: p.entries,
		NumPhases:  numPhases,
		Hysteresis: p.hysteresis,
	})
}

func (p proactive) Managed() bool { return true }

type oracle struct {
	future []phase.ID
}

// Oracle returns perfect-future management over a known phase trace.
// Build the trace with FuturePhases.
func Oracle(future []phase.ID) Policy { return oracle{future: future} }

func (oracle) Name() string    { return "Oracle" }
func (o oracle) Managed() bool { return true }
func (o oracle) NewPredictor(int) (core.Predictor, error) {
	return core.NewOracle(o.future), nil
}

// Config parameterizes a governed run.
type Config struct {
	// GranularityUops is the sampling interval (100M by default).
	GranularityUops uint64
	// Classifier defines phases; nil selects the paper's Table 1.
	Classifier phase.Classifier
	// Translation maps phases to settings; nil selects the paper's
	// Table 2 (identity over the Pentium-M ladder), which requires the
	// classifier to have exactly as many phases as the ladder has
	// points.
	Translation *dvfs.Translation
	// Actuator, when non-nil, replaces the static translation with a
	// dynamic setting choice (e.g. ThermalThrottle) for managed
	// policies.
	Actuator kernelsim.Actuator
	// Machine configures the platform; the zero value selects all
	// defaults. Set Machine.Recorder to capture the power waveform.
	Machine machine.Config
	// LogCapacity sizes the kernel log. Zero keeps the kernel module's
	// default (65536-entry bound, grow on demand); a positive value is
	// both the bound and a preallocation promise — callers that know
	// the interval count (the fleet engine) pass it so the PMI path
	// never grows the log mid-run.
	LogCapacity int
	// Telemetry, when non-nil, observes the run live: it becomes the
	// kernel module's Config.Telemetry — the PMI handler is the run's
	// only hub holder — and the governor counts runs. Nil runs
	// unobserved.
	Telemetry *telemetry.Hub
	// Prefixes lists ascending, positive interval counts at which the
	// run also reports a prefix result (Result.Prefixes): what a run of
	// exactly that many intervals, under this same Config, returns. The
	// workload stream is one seeded sequence and every policy but the
	// oracle decides from the past alone, so one long run stands in for
	// each shorter one. Empty takes no prefixes.
	Prefixes []int
}

// Default classifier and translation are immutable after construction,
// so concurrent runs (the fleet engine's workers) share one instance
// instead of rebuilding them per run — two fewer allocations and one
// fewer validation pass on every governed run.
var (
	defaultClsOnce sync.Once
	defaultCls     phase.Classifier

	defaultTrOnce sync.Once
	defaultTr     *dvfs.Translation
	defaultTrErr  error
)

func defaultClassifier() phase.Classifier {
	defaultClsOnce.Do(func() { defaultCls = phase.Default() })
	return defaultCls
}

// defaultTranslation returns the identity translation over the
// Pentium-M ladder for numPhases phases. The common case — the default
// classifier's phase count — is cached; other counts (custom
// classifiers with Translation left nil) build fresh.
func defaultTranslation(numPhases int) (*dvfs.Translation, error) {
	if numPhases == defaultClassifier().NumPhases() {
		defaultTrOnce.Do(func() { defaultTr, defaultTrErr = dvfs.Identity(dvfs.PentiumM(), numPhases) })
		return defaultTr, defaultTrErr
	}
	return dvfs.Identity(dvfs.PentiumM(), numPhases)
}

// Result is one policy's run outcome.
type Result struct {
	// Policy is the policy name.
	Policy string
	// Run carries time, energy, instruction and overhead totals.
	Run machine.RunResult
	// Accuracy is the prediction tally over the run.
	Accuracy stats.Tally
	// Log is the kernel log (per-interval records).
	Log []kernelsim.Entry
	// OverheadFraction is handler time over total time.
	OverheadFraction float64
	// BudgetViolations counts handler invocations over the interrupt
	// budget.
	BudgetViolations int
	// Prefixes holds one result per Config.Prefixes count, in the same
	// order. Each Log is a view of this result's Log, not a copy.
	Prefixes []*Result
}

// EDP returns the run's energy-delay product.
func (r *Result) EDP() float64 { return r.Run.EDP() }

// Run executes the workload under the policy. The generator is Reset
// first, so the same generator can be reused across policies for
// like-for-like comparisons. It is RunContext with a background
// context.
func Run(gen workload.Generator, pol Policy, cfg Config) (*Result, error) {
	return RunContext(context.Background(), gen, pol, cfg)
}

// ctxGenerator wraps a workload generator so a canceled context ends
// the stream early. The context is polled once every pollStride
// intervals — cheap enough for the 100M-uop granularity while bounding
// how long a canceled run keeps executing.
type ctxGenerator struct {
	workload.Generator
	ctx context.Context
	n   int
}

const ctxPollStride = 32

func (g *ctxGenerator) Next() (cpusim.Work, bool) {
	if g.n%ctxPollStride == 0 && g.ctx.Err() != nil {
		return cpusim.Work{}, false
	}
	g.n++
	return g.Generator.Next()
}

// RunContext is Run with cancellation: a canceled or expired context
// stops the workload stream at the next poll point and the run returns
// the context's error rather than a truncated (and therefore
// misleading) result. A nil ctx behaves like context.Background().
func RunContext(ctx context.Context, gen workload.Generator, pol Policy, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkPrefixes(cfg.Prefixes, pol); err != nil {
		return nil, err
	}
	if cfg.Classifier == nil {
		cfg.Classifier = defaultClassifier()
	}
	if cfg.Translation == nil {
		tr, err := defaultTranslation(cfg.Classifier.NumPhases())
		if err != nil {
			return nil, fmt.Errorf("governor: default translation: %w", err)
		}
		cfg.Translation = tr
	}
	mcfg := cfg.Machine
	if mcfg.Ladder == nil {
		mcfg.Ladder = cfg.Translation.Ladder()
	}
	if mcfg.Ladder != cfg.Translation.Ladder() {
		return nil, fmt.Errorf("governor: translation ladder differs from machine ladder")
	}

	var pred core.Predictor
	var err error
	if cp, ok := pol.(ClassifierPolicy); ok {
		pred, err = cp.NewPredictorFor(cfg.Classifier)
	} else {
		pred, err = pol.NewPredictor(cfg.Classifier.NumPhases())
	}
	if err != nil {
		return nil, fmt.Errorf("governor: building predictor for %s: %w", pol.Name(), err)
	}
	mon, err := core.NewMonitor(cfg.Classifier, pred)
	if err != nil {
		return nil, err
	}
	modCfg := kernelsim.Config{
		GranularityUops: cfg.GranularityUops,
		Monitor:         mon,
		LogCapacity:     cfg.LogCapacity,
		Telemetry:       cfg.Telemetry,
	}
	if pol.Managed() {
		modCfg.Translation = cfg.Translation
		modCfg.Actuator = cfg.Actuator
	}
	mod, err := kernelsim.NewModule(modCfg)
	if err != nil {
		return nil, err
	}

	m := machine.New(mcfg)
	if err := mod.Load(m); err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.GovernorRuns.Inc()
	}
	gen.Reset()
	src := workload.Generator(gen)
	if ctx.Done() != nil {
		src = &ctxGenerator{Generator: gen, ctx: ctx}
	}
	var prefixes []*Result
	var logLens []int
	var mark func(machine.RunResult)
	if len(cfg.Prefixes) > 0 {
		prefixes = make([]*Result, 0, len(cfg.Prefixes))
		logLens = make([]int, 0, len(cfg.Prefixes))
		// At a mark the machine, monitor tally, budget count and log hold
		// exactly the end state of the shorter run (Unload changes none
		// of them). The prefix's Log is sliced from the run's once it is
		// drained.
		mark = func(r machine.RunResult) {
			prefixes = append(prefixes, &Result{
				Policy:           pol.Name(),
				Run:              r,
				Accuracy:         mon.Tally(),
				OverheadFraction: m.OverheadFraction(),
				BudgetViolations: mod.BudgetViolations(),
			})
			logLens = append(logLens, mod.Samples())
		}
	}
	run, err := m.RunMarked(src, mod, cfg.Prefixes, mark)
	if err != nil {
		return nil, fmt.Errorf("governor: running %s under %s: %w", gen.Name(), pol.Name(), err)
	}
	mod.Unload(m)
	if err := ctx.Err(); err != nil {
		// The stream was cut short by cancellation; a truncated run must
		// not masquerade as a completed one.
		return nil, err
	}

	res := &Result{
		Policy: pol.Name(),
		Run:    run,
		// The module is discarded after this; DrainLog transfers the
		// kernel log without the system-call copy ReadLog would make.
		Accuracy:         mon.Tally(),
		Log:              mod.DrainLog(),
		OverheadFraction: m.OverheadFraction(),
		BudgetViolations: mod.BudgetViolations(),
		Prefixes:         prefixes,
	}
	if err := res.slicePrefixLogs(cfg.Prefixes, logLens, mod.Samples()); err != nil {
		return nil, fmt.Errorf("governor: %s under %s: %w", gen.Name(), pol.Name(), err)
	}
	return res, nil
}

// checkPrefixes refuses prefix counts that are not positive and
// ascending, and any prefix of a policy that reads the future: the
// oracle's last decision in a run of N intervals reads the phase of
// interval N+1, which only the longer run has.
func checkPrefixes(prefixes []int, pol Policy) error {
	if len(prefixes) == 0 {
		return nil
	}
	if _, ok := pol.(oracle); ok {
		return fmt.Errorf("governor: %s reads the future, so a prefix of its run is not a shorter run", pol.Name())
	}
	for i, n := range prefixes {
		if n < 1 || (i > 0 && n <= prefixes[i-1]) {
			return fmt.Errorf("governor: prefixes %v are not positive and ascending", prefixes)
		}
	}
	return nil
}

// slicePrefixLogs points each prefix's Log at the head of the run's
// Log, as Log[:n:n] for the n entries logged by its mark. It fails when
// the stream ended before a prefix, or when the kernel-log ring
// wrapped: the oldest entries, which every prefix log begins with, are
// then gone.
func (r *Result) slicePrefixLogs(want, logLens []int, samples int) error {
	if len(r.Prefixes) < len(want) {
		return fmt.Errorf("run ended after %d intervals, before its %d-interval prefix", samples, want[len(r.Prefixes)])
	}
	if len(want) > 0 && len(r.Log) < samples {
		return fmt.Errorf("kernel log kept %d of %d entries, so prefix logs are lost", len(r.Log), samples)
	}
	for i, p := range r.Prefixes {
		if n := logLens[i]; n > 0 {
			p.Log = r.Log[:n:n]
		}
	}
	return nil
}

// Compare runs the same workload under several policies and returns
// results keyed by policy name.
func Compare(gen workload.Generator, policies []Policy, cfg Config) (map[string]*Result, error) {
	out := make(map[string]*Result, len(policies))
	for _, pol := range policies {
		r, err := Run(gen, pol, cfg)
		if err != nil {
			return nil, err
		}
		out[pol.Name()] = r
	}
	return out, nil
}

// FuturePhases precomputes a workload's phase trace for the Oracle
// policy: it classifies every interval at the reference frequency
// (legitimate because the phase metric is DVFS-invariant).
func FuturePhases(gen workload.Generator, cls phase.Classifier, m *machine.Machine) ([]phase.ID, error) {
	if cls == nil {
		cls = phase.Default()
	}
	model := m.CPU()
	fmax := m.DVFS().Ladder().Point(0).FrequencyHz
	gen.Reset()
	var works []cpusim.Work
	if wv, ok := gen.(interface{ Works() []cpusim.Work }); ok {
		// Cached-trace generators (the wcache cursor) expose their
		// shared read-only backing slice; classifying it directly skips
		// re-materializing the whole trace.
		works = wv.Works()
	} else {
		works = workload.Collect(gen, 0)
	}
	obs, err := core.ObservationsFromWork(model, works, cls, fmax)
	if err != nil {
		return nil, err
	}
	out := make([]phase.ID, len(obs))
	for i, o := range obs {
		out[i] = o.Phase
	}
	return out, nil
}

// EDPImprovement returns 1 − EDP_managed/EDP_baseline.
func EDPImprovement(baseline, managed *Result) float64 {
	b := baseline.EDP()
	if b <= 0 {
		return 0
	}
	return 1 - managed.EDP()/b
}

// PerformanceDegradation returns T_managed/T_baseline − 1.
func PerformanceDegradation(baseline, managed *Result) float64 {
	if baseline.Run.TimeS <= 0 {
		return 0
	}
	return managed.Run.TimeS/baseline.Run.TimeS - 1
}

// PowerSavings returns 1 − P_managed/P_baseline (average power).
func PowerSavings(baseline, managed *Result) float64 {
	bt, mt := baseline.Run.TimeS, managed.Run.TimeS
	if bt <= 0 || mt <= 0 {
		return 0
	}
	bp := baseline.Run.EnergyJ / bt
	mp := managed.Run.EnergyJ / mt
	if bp <= 0 {
		return 0
	}
	return 1 - mp/bp
}

// EnergySavings returns 1 − E_managed/E_baseline.
func EnergySavings(baseline, managed *Result) float64 {
	if baseline.Run.EnergyJ <= 0 {
		return 0
	}
	return 1 - managed.Run.EnergyJ/baseline.Run.EnergyJ
}

// NormalizedBIPS returns BIPS_managed/BIPS_baseline — the top chart of
// the paper's Figure 11.
func NormalizedBIPS(baseline, managed *Result) float64 {
	if baseline.Run.BIPS() <= 0 {
		return 0
	}
	return managed.Run.BIPS() / baseline.Run.BIPS()
}

// NormalizedPower returns P_managed/P_baseline — Figure 11's middle
// chart.
func NormalizedPower(baseline, managed *Result) float64 {
	return 1 - PowerSavings(baseline, managed)
}

// NormalizedEDP returns EDP_managed/EDP_baseline — Figure 11's bottom
// chart.
func NormalizedEDP(baseline, managed *Result) float64 {
	return 1 - EDPImprovement(baseline, managed)
}

// MeasuredResult pairs a run with its independent DAQ measurement.
type MeasuredResult struct {
	*Result
	// Measurement is the logging machine's report over the run's
	// sampled power waveform.
	Measurement daq.Report
}

// RunMeasured is Run with the full measurement chain of the paper's
// Figure 9 attached: the machine's power waveform is recorded, sampled
// by the DAQ, and reduced by the logging machine — so the returned
// power numbers come from the measurement path, not the analytic
// accounting. The daqCfg zero value selects daq.DefaultConfig.
func RunMeasured(gen workload.Generator, pol Policy, cfg Config, daqCfg daq.Config) (*MeasuredResult, error) {
	if daqCfg == (daq.Config{}) {
		daqCfg = daq.DefaultConfig()
	}
	wave := daq.NewWaveform()
	if cfg.Machine.Recorder != nil {
		return nil, fmt.Errorf("governor: RunMeasured manages its own recorder")
	}
	cfg.Machine.Recorder = wave
	r, err := Run(gen, pol, cfg)
	if err != nil {
		return nil, err
	}
	samples, err := daq.Acquire(wave, daqCfg)
	if err != nil {
		return nil, err
	}
	rep, err := daq.Analyze(samples, daqCfg)
	if err != nil {
		return nil, err
	}
	return &MeasuredResult{Result: r, Measurement: rep}, nil
}
