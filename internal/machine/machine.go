// Package machine composes the hardware substrates — the timing model,
// the performance counters, the DVFS controller, and the power model —
// into the experimental platform of the paper's Figure 9: a Pentium-M
// laptop whose execution can be monitored through PMIs, actuated
// through SpeedStep, and measured through a power tap feeding the DAQ.
//
// The machine executes workload-generator intervals in PMI-bounded
// chunks: work runs until the uop counter armed by the kernel module
// overflows, the PMI handler runs (classify, predict, actuate), and
// execution resumes. The emitted power waveform is annotated with the
// parallel-port marker bits the paper uses to synchronize the DAQ with
// execution.
package machine

import (
	"errors"
	"fmt"
	"math"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/pmc"
	"phasemon/internal/power"
	"phasemon/internal/thermal"
	"phasemon/internal/workload"
)

// Parallel-port marker bits (the paper's Section 5.4 convention).
const (
	// PortBitPhase (bit 0) is flipped by the handler at each sampling
	// interval so the DAQ can attribute power to individual phases.
	PortBitPhase = 1 << 0
	// PortBitHandler (bit 1) is set while the PMI handler executes.
	PortBitHandler = 1 << 1
	// PortBitApp (bit 2) is set while an application is running.
	PortBitApp = 1 << 2
)

// ParallelPort is the three-bit synchronization channel between the
// prototype machine and the DAQ's signal conditioning unit.
type ParallelPort struct {
	bits uint8
}

// Set sets the given bit mask.
func (p *ParallelPort) Set(mask uint8) { p.bits |= mask }

// Clear clears the given bit mask.
func (p *ParallelPort) Clear(mask uint8) { p.bits &^= mask }

// Toggle flips the given bit mask.
func (p *ParallelPort) Toggle(mask uint8) { p.bits ^= mask }

// Bits returns the current port state.
func (p *ParallelPort) Bits() uint8 { return p.bits }

// Span is one piecewise-constant segment of the machine's power
// waveform: for Dur seconds starting at T0, the CPU rail drew Watts at
// Volts with the given parallel-port state.
type Span struct {
	T0    float64
	Dur   float64
	Watts float64
	Volts float64
	Port  uint8
}

// Recorder consumes the power waveform. The daq package's Waveform is
// the standard implementation; a nil recorder disables recording.
type Recorder interface {
	Record(s Span)
}

// Handler is the software attached to the performance monitoring
// interrupt — the paper's LKM handler. It receives the machine to
// read/rearm counters and actuate DVFS, and returns the handler's
// execution cost in seconds, which the machine charges as overhead.
type Handler interface {
	HandlePMI(m *Machine) (overheadS float64)
}

// Config assembles a machine.
type Config struct {
	// Ladder is the DVFS operating points; nil selects PentiumM.
	Ladder *dvfs.Ladder
	// Recorder taps the power waveform; nil disables.
	Recorder Recorder
	// Thermal attaches a die-temperature model; nil disables thermal
	// tracking (Temperature then reports ambient-less zero state).
	Thermal *thermal.Model
}

// Machine is the assembled platform.
type Machine struct {
	cpu   *cpusim.Model
	power *power.Model
	pmcs  *pmc.Bank
	ctrl  *dvfs.Controller
	port  ParallelPort
	rec   Recorder
	therm *thermal.Model

	// settings is the power model tabulated per ladder setting,
	// indexed by dvfs.Setting; baseW is the model's rail floor.
	settings []settingPower
	baseW    float64

	acct Account
}

// New assembles a machine from the configuration, on the default
// timing and power models.
func New(cfg Config) *Machine { return newMachine(cfg, power.Default()) }

// newMachine is New on power model pm.
func newMachine(cfg Config, pm *power.Model) *Machine {
	if cfg.Ladder == nil {
		cfg.Ladder = dvfs.PentiumM()
	}
	settings := make([]settingPower, cfg.Ladder.Len())
	for i := range settings {
		p := cfg.Ladder.Point(dvfs.Setting(i))
		if f := p.FrequencyHz; !(f > 0) || math.IsInf(f, 0) {
			// dvfs.NewLadder rejects such a point; Run executes its
			// chunks unchecked on the strength of this one check.
			panic(fmt.Sprintf("machine: ladder point %v has no valid frequency", p))
		}
		settings[i] = settingPower{
			point:    p,
			leakW:    pm.Leakage(p.VoltageV),
			handlerW: pm.Power(p.VoltageV, p.FrequencyHz, handlerUPC),
		}
	}
	return &Machine{
		cpu:      cpusim.New(cpusim.DefaultConfig()),
		power:    pm,
		pmcs:     pmc.NewBank(),
		ctrl:     dvfs.NewController(cfg.Ladder, dvfs.DefaultTransitionLatency),
		rec:      cfg.Recorder,
		therm:    cfg.Thermal,
		settings: settings,
		baseW:    pm.Config().BaseW,
	}
}

// handlerUPC is the nominal UPC the PMI handler is charged at: handler
// code is branchy kernel work.
const handlerUPC = 1.0

// settingPower is the power model evaluated once at one ladder
// setting. Leakage depends on voltage alone and the handler runs at a
// fixed UPC, so both are constants of the setting; New computes them
// with the model's own functions, so a table read is bit-for-bit the
// value the model would return.
type settingPower struct {
	point    dvfs.OperatingPoint
	leakW    float64 // Leakage(V)
	handlerW float64 // Power(V, f, handlerUPC)
}

// CPU returns the timing model.
func (m *Machine) CPU() *cpusim.Model { return m.cpu }

// PMCs returns the performance counter bank.
func (m *Machine) PMCs() *pmc.Bank { return m.pmcs }

// DVFS returns the DVFS controller.
func (m *Machine) DVFS() *dvfs.Controller { return m.ctrl }

// Port returns the parallel port.
func (m *Machine) Port() *ParallelPort { return &m.port }

// Thermal returns the attached die-temperature model, or nil when the
// machine was built without one.
func (m *Machine) Thermal() *thermal.Model { return m.therm }

// OverheadFraction returns handler time as a fraction of total time.
func (m *Machine) OverheadFraction() float64 { return m.acct.OverheadFraction() }

// NowNs is Account.NowNs: in a PMI handler, when the PMI fired.
func (m *Machine) NowNs() int64 { return m.acct.NowNs() }

// powerNow is the rail power at setting sp for an observed UPC. It
// adds the same operands in the same order as power.Model.Power, with
// the tabulated leakage in place of Leakage(V). With a thermal model
// attached it is PowerAt at the current die temperature instead —
// the leakage scaled exactly as LeakageAt scales it — so leakage
// feeds back into heat. The float64 conversion rounds the dynamic
// power before the add, so no architecture fuses the two.
func (m *Machine) powerNow(sp *settingPower, upc float64) float64 {
	leak := sp.leakW
	if m.therm != nil {
		leak *= m.power.LeakageScale(m.therm.TemperatureC())
	}
	return float64(m.power.Dynamic(sp.point.VoltageV, sp.point.FrequencyHz, upc)) + leak + m.baseW
}

// handlerPower is powerNow at the handler's nominal UPC, read straight
// from the table when no die temperature scales the leakage.
func (m *Machine) handlerPower(sp *settingPower) float64 {
	if m.therm != nil {
		return m.powerNow(sp, handlerUPC)
	}
	return sp.handlerW
}

// record hands one waveform span to the recorder and the thermal
// model, ahead of the Account charge that advances time and energy.
func (m *Machine) record(dur, watts, volts float64) {
	if dur <= 0 {
		return
	}
	if m.rec != nil {
		m.rec.Record(Span{T0: m.acct.nowS, Dur: dur, Watts: watts, Volts: volts, Port: m.port.Bits()})
	}
	if m.therm != nil {
		m.therm.Advance(watts, dur)
	}
}

// Account is a run's cumulative time, energy and work accounting. It
// is the one place a span of the power waveform is charged: Run and
// the table replays (Table) both charge through it, so they add the
// same floats in the same order.
type Account struct {
	nowS, energyJ          float64
	appTimeS, handlerTimeS float64
	instructions, uops     float64
}

// span advances time and energy by one waveform span; a span of no
// duration is not emitted. The energy's product is rounded before the
// add (float64), so no architecture fuses the two.
func (a *Account) span(dur, watts float64) {
	if dur <= 0 {
		return
	}
	a.nowS += dur
	a.energyJ += float64(watts * dur)
}

// Work charges one executed chunk: its span at watts, and the
// instructions and uops it retired.
func (a *Account) Work(dur, watts, instructions, uops float64) {
	a.span(dur, watts)
	a.appTimeS += dur
	a.instructions += instructions
	a.uops += uops
}

// Handler charges one PMI handler span at watts.
func (a *Account) Handler(dur, watts float64) {
	a.span(dur, watts)
	a.handlerTimeS += dur
}

// NowNs returns the simulated time charged so far, in nanoseconds
// (rounded): a simulated run's telemetry stamp.
func (a *Account) NowNs() int64 { return int64(math.Round(a.nowS * 1e9)) }

// OverheadFraction returns handler time as a fraction of total time.
func (a *Account) OverheadFraction() float64 {
	total := a.appTimeS + a.handlerTimeS
	if total <= 0 {
		return 0
	}
	return a.handlerTimeS / total
}

// Result is the RunResult of everything charged so far, with the run's
// PMI and DVFS transition counts.
func (a *Account) Result(pmis uint64, transitions int) RunResult {
	return a.totals(pmis, transitions).since(totals{})
}

// execute runs the first uops micro-ops of w at setting sp, through
// the timing model's cpusim.Interval: it returns the chunk's duration,
// its cycle count (duration × frequency, the TSC delta), the
// instructions it retired and the memory transactions it issued, and
// the rail power it drew at its observed UPC. Run and Table.At compute
// every work span through it, so both do the same float operations in
// the same order.
func (m *Machine) execute(w *cpusim.Work, uops float64, sp *settingPower) (dur, cycles, instructions, memTx, watts float64) {
	f := sp.point.FrequencyHz
	// A chunk of (0, w.Uops] uops is as valid as w, and New checked
	// every ladder frequency: evaluate it unchecked.
	dur, _, _, instructions, memTx = m.cpu.Interval(w, uops, f)
	cycles = dur * f
	return dur, cycles, instructions, memTx, m.powerNow(sp, uops/cycles)
}

// count is what a counter counts of a simulated quantity.
func count(x float64) uint64 { return uint64(math.Round(x)) }

// ErrNoUopCounter reports a run attempted without an armed uop counter.
var ErrNoUopCounter = errors.New("machine: no interrupt-enabled UOPS_RETIRED counter configured")

// uopSlot finds the programmable counter configured for uops.
func (m *Machine) uopSlot() (int, error) {
	for slot := 0; slot < pmc.NumProgrammable; slot++ {
		e, err := m.pmcs.Event(slot)
		if err != nil {
			return 0, err
		}
		if e == pmc.EventUopsRetired {
			return slot, nil
		}
	}
	return 0, ErrNoUopCounter
}

// RunResult summarizes a completed run.
type RunResult struct {
	TimeS        float64
	EnergyJ      float64
	Instructions float64
	Uops         float64
	PMIs         uint64
	OverheadS    float64
	Transitions  int
}

// BIPS returns the run's billions of instructions per second.
func (r RunResult) BIPS() float64 {
	if r.TimeS <= 0 {
		return 0
	}
	return r.Instructions / r.TimeS / 1e9
}

// EDP returns the run's energy-delay product in joule-seconds.
func (r RunResult) EDP() float64 { return r.EnergyJ * r.TimeS }

// Run executes the workload to completion, raising a PMI into handler
// each time the armed uop counter overflows. The counters must already
// be configured and armed (the kernel module's init does that). Work
// items whose uop counts exceed the PMI granularity are split across
// interrupts exactly as real hardware would.
func (m *Machine) Run(gen workload.Generator, handler Handler) (RunResult, error) {
	slot, err := m.uopSlot()
	if err != nil {
		return RunResult{}, err
	}
	start := m.totals()

	m.port.Set(PortBitApp)
	defer m.port.Clear(PortBitApp)

	for {
		w, ok := gen.Next()
		if !ok {
			break
		}
		if err := w.Validate(); err != nil {
			return RunResult{}, fmt.Errorf("machine: generator %q: %w", gen.Name(), err)
		}
		remaining := w.Uops
		for remaining > 0 {
			until, err := m.pmcs.UntilOverflow(slot)
			if err != nil {
				return RunResult{}, err
			}
			chunkUops := remaining
			if f := float64(until); f < chunkUops {
				chunkUops = f
			}
			sp := &m.settings[m.ctrl.Current()]
			dur, cycles, instructions, memTx, watts := m.execute(&w, chunkUops, sp)
			m.record(dur, watts, sp.point.VoltageV)
			m.acct.Work(dur, watts, instructions, chunkUops)

			pmi := m.pmcs.Advance(pmc.Delta{
				Uops:            count(chunkUops),
				Instructions:    count(instructions),
				MemTransactions: count(memTx),
				Cycles:          count(cycles),
			})
			remaining -= chunkUops

			if pmi && handler != nil {
				m.port.Set(PortBitHandler)
				preTrans := m.ctrl.TimeInTransition()
				overhead := handler.HandlePMI(m)
				if overhead < 0 {
					overhead = 0
				}
				overhead += m.ctrl.TimeInTransition() - preTrans
				sp := &m.settings[m.ctrl.Current()]
				watts := m.handlerPower(sp)
				m.record(overhead, watts, sp.point.VoltageV)
				m.acct.Handler(overhead, watts)
				m.port.Clear(PortBitHandler)
			}
		}
	}

	return m.totals().since(start), nil
}

// totals is the machine's cumulative accounting, from which a run's
// RunResult is the difference between its end and start.
type totals struct {
	t, e, h, i, u float64
	pmis          uint64
	trans         int
}

func (m *Machine) totals() totals {
	return m.acct.totals(m.pmcs.PMICount(), m.ctrl.Transitions())
}

func (a *Account) totals(pmis uint64, trans int) totals {
	return totals{a.nowS, a.energyJ, a.handlerTimeS, a.instructions, a.uops, pmis, trans}
}

// since is the RunResult of a run that began at start and ended at now.
func (now totals) since(start totals) RunResult {
	return RunResult{
		TimeS:        now.t - start.t,
		EnergyJ:      now.e - start.e,
		Instructions: now.i - start.i,
		Uops:         now.u - start.u,
		PMIs:         now.pmis - start.pmis,
		OverheadS:    now.h - start.h,
		Transitions:  now.trans - start.trans,
	}
}
