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
}

// Proactive returns GPHT-guided management with the given predictor
// geometry (the paper deploys depth 8, 128 entries).
func Proactive(gphrDepth, phtEntries int) Policy {
	return proactive{depth: gphrDepth, entries: phtEntries}
}

func (p proactive) Name() string {
	return fmt.Sprintf("GPHT_%d_%d", p.depth, p.entries)
}

func (p proactive) NewPredictor(numPhases int) (core.Predictor, error) {
	return core.NewGPHT(core.GPHTConfig{
		GPHRDepth:  p.depth,
		PHTEntries: p.entries,
		NumPhases:  numPhases,
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
	// Log is the kernel log's storage (kernelsim.Config.Log): when it
	// has capacity, cap(Log) is the log's bound and the run writes from
	// Log[:0], so the PMI path never grows the log mid-run and the
	// result's Log aliases this storage.
	// Callers that know the interval count (the fleet engine) pass
	// storage of that capacity, reused from run to run. Nil keeps the
	// kernel module's default (65536-entry bound, grow on demand).
	Log []kernelsim.Entry
	// Telemetry, when non-nil, observes the run live: it becomes the
	// kernel module's Config.Telemetry — the PMI handler is the run's
	// only hub holder — and the governor counts runs. Nil runs
	// unobserved.
	Telemetry *telemetry.Hub
}

// The default translation is immutable after construction, so
// concurrent runs (the fleet engine's workers) share one instance
// instead of rebuilding it per run, as they share phase.Default().
var (
	defaultTrOnce sync.Once
	defaultTr     *dvfs.Translation
	defaultTrErr  error
)

// defaultTranslation returns the identity translation over the
// Pentium-M ladder for numPhases phases. The common case — the default
// classifier's phase count — is cached; other counts (custom
// classifiers with Translation left nil) build fresh.
func defaultTranslation(numPhases int) (*dvfs.Translation, error) {
	if numPhases == phase.Default().NumPhases() {
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
	// Log is the kernel log (per-interval records). It is
	// Config.Log's storage when the run was given some, and then valid
	// only until the caller reuses that storage.
	Log []kernelsim.Entry
	// OverheadFraction is handler time over total time.
	OverheadFraction float64
	// BudgetViolations counts handler invocations over the interrupt
	// budget.
	BudgetViolations int
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
	cfg, modCfg, err := setup(pol, cfg)
	if err != nil {
		return nil, err
	}
	modCfg.Log = cfg.Log
	modCfg.Telemetry = cfg.Telemetry
	mod, err := kernelsim.NewModule(modCfg)
	if err != nil {
		return nil, err
	}

	m := machine.New(cfg.Machine)
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
	run, err := m.Run(src, mod)
	if err != nil {
		return nil, fmt.Errorf("governor: running %s under %s: %w", gen.Name(), pol.Name(), err)
	}
	mod.Unload(m)
	if err := ctx.Err(); err != nil {
		// The stream was cut short by cancellation; a truncated run must
		// not masquerade as a completed one.
		return nil, err
	}

	return &Result{
		Policy: pol.Name(),
		Run:    run,
		// The module is discarded after this; DrainLog transfers the
		// kernel log without the system-call copy ReadLog would make.
		Accuracy:         modCfg.Monitor.Tally(),
		Log:              mod.DrainLog(),
		OverheadFraction: m.OverheadFraction(),
		BudgetViolations: mod.BudgetViolations(),
	}, nil
}

// setup resolves cfg's defaults for a run of pol — the classifier,
// the translation, and the machine's ladder, which must be the
// translation's — and builds the run's kernel-module configuration:
// its monitor, and for a managed policy the translation and actuator.
// RunContext and NewReplay both set runs up through it.
func setup(pol Policy, cfg Config) (Config, kernelsim.Config, error) {
	if cfg.Classifier == nil {
		cfg.Classifier = phase.Default()
	}
	if cfg.Translation == nil {
		tr, err := defaultTranslation(cfg.Classifier.NumPhases())
		if err != nil {
			return cfg, kernelsim.Config{}, fmt.Errorf("governor: default translation: %w", err)
		}
		cfg.Translation = tr
	}
	if cfg.Machine.Ladder == nil {
		cfg.Machine.Ladder = cfg.Translation.Ladder()
	}
	if cfg.Machine.Ladder != cfg.Translation.Ladder() {
		return cfg, kernelsim.Config{}, fmt.Errorf("governor: translation ladder differs from machine ladder")
	}

	var pred core.Predictor
	var err error
	if cp, ok := pol.(ClassifierPolicy); ok {
		pred, err = cp.NewPredictorFor(cfg.Classifier)
	} else {
		pred, err = pol.NewPredictor(cfg.Classifier.NumPhases())
	}
	if err != nil {
		return cfg, kernelsim.Config{}, fmt.Errorf("governor: building predictor for %s: %w", pol.Name(), err)
	}
	mon, err := core.NewMonitor(cfg.Classifier, pred)
	if err != nil {
		return cfg, kernelsim.Config{}, err
	}
	modCfg := kernelsim.Config{
		GranularityUops: cfg.GranularityUops,
		Monitor:         mon,
	}
	if pol.Managed() {
		modCfg.Translation = cfg.Translation
		modCfg.Actuator = cfg.Actuator
	}
	return cfg, modCfg, nil
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
