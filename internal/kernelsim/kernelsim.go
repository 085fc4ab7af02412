// Package kernelsim models the software side of the paper's deployed
// system: the loadable kernel module (LKM) whose performance
// monitoring interrupt (PMI) handler implements the Figure 8 flow —
// stop/read counters, translate readings to a phase, update the
// predictor, predict the next phase, translate it to a DVFS setting,
// apply it if it changed, and rearm the counters.
//
// The module also keeps the kernel log of per-interval counter values
// and predictions that user-level tools read through system calls, and
// it accounts for its own execution cost so the paper's
// "no observable overheads" claim is a checkable quantity rather than
// an assertion.
package kernelsim

import (
	"fmt"

	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/pmc"
	"phasemon/internal/telemetry"
	"phasemon/internal/thermal"
	"phasemon/internal/trace"
)

// Counter slot assignment: the paper dedicates one counter to
// UOPS_RETIRED (to pace the PMI) and the remaining one to BUS_TRAN_MEM.
const (
	SlotUops = 0
	SlotMem  = 1
)

// Config parameterizes the module.
type Config struct {
	// GranularityUops is the sampling interval; the paper uses 100M.
	GranularityUops uint64
	// Monitor supplies classification and prediction. Required.
	Monitor *core.Monitor
	// Translation maps predicted phases to DVFS settings. Nil disables
	// dynamic management (monitoring-only deployment).
	Translation *dvfs.Translation
	// Actuator, when non-nil, takes precedence over Translation: it
	// chooses the next interval's setting dynamically, with access to
	// platform state (e.g. die temperature for thermal throttling).
	Actuator Actuator
	// Telemetry, when non-nil, observes the run live. The run's
	// Stepper is its only holder: it folds each interval — verdict,
	// phase transition, DVFS change, PMI sample and handler cost — into
	// its own StepBatch, stamped in simulated time, and publishes it
	// after every 32nd interval; the run's end publishes the rest. Nil
	// (the default) leaves the run unobserved at near-zero cost.
	Telemetry *telemetry.Hub
}

// DefaultLogCapacity is the kernel log's bound, in entries (one per
// interval): the log grows on demand up to it, then wraps as a ring.
const DefaultLogCapacity = 65536

// publishStride is an observed Stepper's publish cadence, in intervals
// of the run: the hub pays one publish per stride and lags by at most
// one.
const publishStride = 32

// DefaultGranularityUops is the sampling interval a zero
// Config.GranularityUops selects: the paper's 100M uops.
const DefaultGranularityUops = 100_000_000

func (c Config) withDefaults() Config {
	if c.GranularityUops == 0 {
		c.GranularityUops = DefaultGranularityUops
	}
	return c
}

// Entry is one kernel-log record: the raw counter deltas and the
// classification/prediction outcome of one sampling interval.
type Entry struct {
	Index     int
	Uops      uint64
	MemTx     uint64
	Cycles    uint64
	MemPerUop float64
	UPC       float64
	Actual    phase.ID
	Predicted phase.ID
	// Setting is the DVFS setting the logged interval executed at
	// (the actuation decided here takes effect for the *next*
	// interval).
	Setting dvfs.Setting
}

// Actuator chooses the DVFS setting to apply for the upcoming
// interval, given the predicted phase. Static translations are the
// Table 2 case; dynamic actuators implement management goals that
// depend on platform state, such as thermal limits or power caps. die
// is the platform's thermal model, nil when it has none.
type Actuator interface {
	Choose(die *thermal.Model, predicted phase.ID) dvfs.Setting
}

// Stepper is the decision half of the Figure 8 flow, the part that
// does not touch the counters: it updates the predictor state and
// predicts the next phase, translates the prediction to a DVFS setting
// and applies it, counts a handler invocation over the interrupt
// budget, and folds the interval, stamped in simulated time, into the
// run's telemetry batch, which it publishes every 32 intervals. The PMI
// handler steps it once per interrupt, and the governor's table replays
// once per replayed interval, so both make the one decision.
type Stepper struct {
	mon   *core.Monitor
	tr    *dvfs.Translation
	act   Actuator
	ctrl  *dvfs.Controller // the DVFS controller it actuates
	die   *thermal.Model   // the thermal model an Actuator reads; may be nil
	costS float64          // the modeled handler cost, fixed by the predictor
	over  bool             // costS exceeds BudgetS
	// tel is the run's batch on Config.Telemetry; nil when unobserved.
	tel *telemetry.StepBatch
	// clock is the run's simulated time, which stamps observed steps.
	clock interface{ NowNs() int64 }
	// pre is what an observed step notes before the monitor steps, for
	// its fold: the interval, its sample and stamp, the phase and
	// prediction the monitor held, its PHT lookup counts, and the
	// setting the interval ran at.
	pre struct {
		index         int
		s             phase.Sample
		nowNs         int64
		prev, pending phase.ID
		hits, misses  uint64
		ranAt         dvfs.Setting
	}

	violations int
}

// NewStepper returns the stepper of a run configured by cfg, whose
// Monitor must be set, that actuates ctrl: Actuator takes precedence
// over Translation, reading die, and with neither it only monitors.
// Observed, it stamps each interval with clock, read as it steps.
func NewStepper(cfg Config, ctrl *dvfs.Controller, die *thermal.Model, clock interface{ NowNs() int64 }) Stepper {
	cost := HandlerCost(cfg.Monitor.Predictor())
	return Stepper{
		mon:   cfg.Monitor,
		tr:    cfg.Translation,
		act:   cfg.Actuator,
		ctrl:  ctrl,
		die:   die,
		costS: cost,
		over:  cost > BudgetS,
		tel:   cfg.Telemetry.NewStepBatch(),
		clock: clock,
	}
}

// Step decides the run's interval index from its sample s: the
// monitor's step, then the actuation for the next interval. It returns
// the interval's phase, the phase predicted for the next one, and the
// handler's modeled cost. An observed stepper folds the interval into
// its batch; the caller publishes the last stride (Publish).
//
//lint:hotpath
func (st *Stepper) Step(index int, s phase.Sample) (actual, next phase.ID, costS float64) {
	if st.tel != nil {
		p := &st.pre
		p.index, p.s, p.nowNs = index, s, st.clock.NowNs()
		p.prev, p.pending = st.mon.LastActual(), st.mon.LastPrediction()
		p.hits, p.misses = core.PHTLookups(st.mon.Predictor())
		p.ranAt = st.ctrl.Current()
	}
	actual, next = st.mon.Step(s)

	// Translate the predicted phase to a DVFS setting and apply it if
	// it differs from the current one; it governs the next interval.
	switch {
	case st.act != nil:
		_, _ = st.ctrl.Set(st.act.Choose(st.die, next))
	case st.tr != nil:
		_, _ = st.ctrl.Set(st.tr.Setting(next))
	}
	if st.over {
		st.violations++
	}

	if st.tel != nil {
		st.fold(actual, next)
	}
	return actual, next, st.costS
}

// fold records a stepped interval into the batch against what the step
// noted before (pre): the PHT lookups since, the verdict and any phase
// transition, any DVFS change, the PMI sample and the handler
// invocation, publishing at the end of a stride. It stays out of
// Step's body, so an unobserved step carries none of it.
//
//lint:hotpath
func (st *Stepper) fold(actual, next phase.ID) {
	p := &st.pre
	hits, misses := core.PHTLookups(st.mon.Predictor())
	st.tel.GPHTLookups(hits-p.hits, misses-p.misses)
	st.tel.Fold(p.index, p.s.MemPerUop, int(p.prev), int(p.pending), int(actual), int(next), p.nowNs)
	if set := st.ctrl.Current(); set != p.ranAt {
		st.tel.DVFSChange(p.index, int(p.ranAt), int(set), p.nowNs)
	}
	st.tel.PMISample(p.index, p.s.MemPerUop, p.s.UPC, p.nowNs)
	st.tel.Handler(st.costS, st.over)
	if (p.index+1)%publishStride == 0 {
		st.tel.Publish()
	}
}

// Publish applies the intervals folded since the last Publish to the
// hub: the run's owner calls it for the last, partial stride.
// Unobserved, it does nothing.
//
//lint:hotpath
func (st *Stepper) Publish() { st.tel.Publish() }

// BudgetViolations counts the steps whose handler cost exceeded the
// interrupt time budget.
func (st *Stepper) BudgetViolations() int { return st.violations }

// Module is the loaded LKM.
type Module struct {
	cfg    Config
	loaded bool
	step   Stepper

	lastTSC uint64
	index   int

	log      []Entry
	logStart int // ring buffer start when saturated
	logBound int // entries the ring holds before it wraps
}

// NewModule validates the configuration and returns an unloaded module.
func NewModule(cfg Config) (*Module, error) {
	if cfg.Monitor == nil {
		return nil, fmt.Errorf("kernelsim: config requires a Monitor")
	}
	cfg = cfg.withDefaults()
	if cfg.GranularityUops >= 1<<pmc.CounterWidth {
		return nil, fmt.Errorf("kernelsim: granularity %d exceeds counter width", cfg.GranularityUops)
	}
	return &Module{cfg: cfg, step: NewStepper(cfg, nil, nil, nil), logBound: DefaultLogCapacity}, nil
}

// Load installs the module on the machine: it configures and arms the
// counters (the one-time initialization of Figure 8) and starts them.
func (mod *Module) Load(m *machine.Machine) error {
	b := m.PMCs()
	if err := b.Configure(SlotUops, pmc.EventUopsRetired, true); err != nil {
		return err
	}
	if err := b.Configure(SlotMem, pmc.EventBusTranMem, false); err != nil {
		return err
	}
	if err := b.Arm(SlotUops, mod.cfg.GranularityUops); err != nil {
		return err
	}
	if err := b.Write(SlotMem, 0); err != nil {
		return err
	}
	b.WriteTSC(0)
	mod.lastTSC = 0
	b.Start()
	mod.step.ctrl, mod.step.die, mod.step.clock = m.DVFS(), m.Thermal(), m
	mod.loaded = true
	if tel := mod.cfg.Telemetry; tel != nil {
		tel.CurrentSetting.Set(float64(m.DVFS().Current()))
	}
	return nil
}

// Unload stops the counters, publishes the last telemetry stride and
// marks the module unloaded. The kernel log remains readable, as the
// paper's user tools read it after runs.
func (mod *Module) Unload(m *machine.Machine) {
	m.PMCs().Stop()
	mod.step.Publish()
	mod.loaded = false
}

// HandlePMI implements machine.Handler with the exact Figure 8 flow.
//
//lint:hotpath
func (mod *Module) HandlePMI(m *machine.Machine) float64 {
	if !mod.loaded {
		return 0
	}
	b := m.PMCs()

	// Stop and read the counters.
	b.Stop()
	memTx, _ := b.Read(SlotMem)
	tsc := b.TSC()
	cycles := tsc - mod.lastTSC
	uops := mod.cfg.GranularityUops // the PMI fires exactly at the granularity

	// Translate counter readings to the corresponding phase, then
	// predict, translate and actuate. The logged interval ran at the
	// setting current *before* this handler's actuation.
	s := phase.FromCounters(uops, memTx, cycles)
	ranAt := m.DVFS().Current()
	actual, next, cost := mod.step.Step(mod.index, s)

	// Log the sample for user-level evaluation tools. The fields are
	// written straight into the log slot, every one of them (a
	// composite literal would be built on the stack and copied in).
	e := mod.logSlot()
	e.Index = mod.index
	e.Uops = uops
	e.MemTx = memTx
	e.Cycles = cycles
	e.MemPerUop = s.MemPerUop
	e.UPC = s.UPC
	e.Actual = actual
	e.Predicted = next
	e.Setting = ranAt
	mod.index++

	// Flip the phase marker so the DAQ can attribute the next interval.
	m.Port().Toggle(machine.PortBitPhase)

	// Clear the interrupt, reinitialize and restart the counters.
	if err := b.Arm(SlotUops, mod.cfg.GranularityUops); err != nil {
		// Unreachable with a validated granularity; fail safe by
		// leaving the counters stopped.
		return baseHandlerCostS
	}
	if err := b.Write(SlotMem, 0); err != nil {
		return baseHandlerCostS
	}
	b.WriteTSC(0)
	mod.lastTSC = 0
	b.Start()

	return cost
}

// The PMI handler's cost model: a fixed base for the counter reads
// and bookkeeping, plus a charge per PHT entry for predictors with
// associative tables — the reason the paper deploys a 128-entry rather
// than a 1024-entry PHT.
const (
	baseHandlerCostS    = 2e-6
	perEntrySearchCostS = 20e-9
)

// BudgetS is the interrupt-context time budget; an invocation that
// costs more trips the module's constraint violation counter.
const BudgetS = 50e-6

// HandlerCost models the PMI handler's execution time with predictor
// p. It is the cost rule of HandlePMI and of the governor's table
// replays alike.
func HandlerCost(p core.Predictor) float64 {
	cost := baseHandlerCostS
	if s, ok := p.(interface{ TableEntries() int }); ok {
		// float64 rounds the product before the add, so no architecture
		// fuses the two.
		cost += float64(float64(s.TableEntries()) * perEntrySearchCostS)
	}
	return cost
}

// BudgetViolations counts handler invocations that exceeded the
// interrupt time budget.
func (mod *Module) BudgetViolations() int { return mod.step.BudgetViolations() }

// Samples returns how many intervals the module has logged.
func (mod *Module) Samples() int { return mod.index }

// ReadLog returns a copy of the kernel log, oldest first — the
// system-call interface the paper's user-level tool uses. An empty log
// reads as nil rather than a freshly allocated empty slice.
func (mod *Module) ReadLog() []Entry {
	if len(mod.log) == 0 {
		return nil
	}
	out := make([]Entry, 0, len(mod.log))
	out = append(out, mod.log[mod.logStart:]...)
	out = append(out, mod.log[:mod.logStart]...)
	return out
}

// DrainLog hands the kernel log to the caller without copying: the
// module's backing array is rotated in place to oldest-first order, detached, and returned; the
// module starts a fresh (empty) log. This is the post-run path for
// owners that discard the module afterwards — the governor reads the
// log exactly once into its Result, so the system-call copy ReadLog
// models would be pure garbage. Use ReadLog when the module keeps
// running.
func (mod *Module) DrainLog() []Entry {
	out := mod.log
	if mod.logStart > 0 {
		rotateLeft(out, mod.logStart)
	}
	mod.log = nil
	mod.logStart = 0
	if len(out) == 0 {
		return nil
	}
	return out
}

// rotateLeft rotates s left by k in place (three reversals).
func rotateLeft(s []Entry, k int) {
	reverse(s[:k])
	reverse(s[k:])
	reverse(s)
}

func reverse(s []Entry) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// logSlot returns the slot the next log entry is written into: a new
// one at the end while the log is below capacity (reslicing within the
// backing array, growing it only when it is full), else the oldest,
// which the ring start then moves past. The caller overwrites every
// field.
func (mod *Module) logSlot() *Entry {
	n := len(mod.log)
	if n < mod.logBound {
		if n < cap(mod.log) {
			mod.log = mod.log[:n+1]
		} else {
			mod.log = append(mod.log, Entry{})
		}
		return &mod.log[n]
	}
	e := &mod.log[mod.logStart]
	if mod.logStart++; mod.logStart == n {
		mod.logStart = 0
	}
	return e
}

// ToTrace converts kernel-log entries into the trace package's record
// form for export and analysis. The ladder supplies per-setting
// frequencies so interval durations can be reconstructed from cycles.
func ToTrace(entries []Entry, ladder *dvfs.Ladder) *trace.Log {
	log := trace.NewLogWithCap(len(entries))
	var t float64
	for _, e := range entries {
		var freq, dur float64
		if ladder != nil && ladder.ValidSetting(e.Setting) {
			freq = ladder.Point(e.Setting).FrequencyHz
			if freq > 0 {
				dur = float64(e.Cycles) / freq
			}
		}
		log.Append(trace.Record{
			Index:           e.Index,
			StartS:          t,
			DurS:            dur,
			Uops:            float64(e.Uops),
			MemTransactions: float64(e.MemTx),
			Cycles:          float64(e.Cycles),
			MemPerUop:       e.MemPerUop,
			UPC:             e.UPC,
			Actual:          e.Actual,
			Predicted:       e.Predicted,
			Setting:         int(e.Setting),
			FreqHz:          freq,
		})
		t += dur
	}
	return log
}
