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
	// CPU is the timing model; nil selects the default.
	CPU *cpusim.Model
	// Power is the power model; nil selects the default.
	Power *power.Model
	// Ladder is the DVFS operating points; nil selects PentiumM.
	Ladder *dvfs.Ladder
	// TransitionLatencyS is the DVFS mode-change cost.
	TransitionLatencyS float64
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

	nowS    float64
	energyJ float64

	// run accounting
	appTimeS     float64
	handlerTimeS float64
	instructions float64
	uops         float64
}

// New assembles a machine from the configuration.
func New(cfg Config) *Machine {
	if cfg.CPU == nil {
		cfg.CPU = cpusim.New(cpusim.DefaultConfig())
	}
	if cfg.Power == nil {
		cfg.Power = power.Default()
	}
	if cfg.Ladder == nil {
		cfg.Ladder = dvfs.PentiumM()
	}
	if cfg.TransitionLatencyS <= 0 {
		cfg.TransitionLatencyS = dvfs.DefaultTransitionLatency
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
			leakW:    cfg.Power.Leakage(p.VoltageV),
			handlerW: cfg.Power.Power(p.VoltageV, p.FrequencyHz, handlerUPC),
		}
	}
	return &Machine{
		cpu:      cfg.CPU,
		power:    cfg.Power,
		pmcs:     pmc.NewBank(),
		ctrl:     dvfs.NewController(cfg.Ladder, cfg.TransitionLatencyS),
		rec:      cfg.Recorder,
		therm:    cfg.Thermal,
		settings: settings,
		baseW:    cfg.Power.Config().BaseW,
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

// PowerModel returns the power model.
func (m *Machine) PowerModel() *power.Model { return m.power }

// PMCs returns the performance counter bank.
func (m *Machine) PMCs() *pmc.Bank { return m.pmcs }

// DVFS returns the DVFS controller.
func (m *Machine) DVFS() *dvfs.Controller { return m.ctrl }

// Port returns the parallel port.
func (m *Machine) Port() *ParallelPort { return &m.port }

// Thermal returns the attached die-temperature model, or nil when the
// machine was built without one.
func (m *Machine) Thermal() *thermal.Model { return m.therm }

// Now returns the simulated time in seconds.
func (m *Machine) Now() float64 { return m.nowS }

// EnergyJ returns the cumulative CPU energy in joules.
func (m *Machine) EnergyJ() float64 { return m.energyJ }

// AppTimeS returns time spent executing application work.
func (m *Machine) AppTimeS() float64 { return m.appTimeS }

// HandlerTimeS returns time spent inside the PMI handler (plus DVFS
// transitions) — the overhead the paper argues is invisible.
func (m *Machine) HandlerTimeS() float64 { return m.handlerTimeS }

// OverheadFraction returns handler time as a fraction of total time.
func (m *Machine) OverheadFraction() float64 {
	total := m.appTimeS + m.handlerTimeS
	if total <= 0 {
		return 0
	}
	return m.handlerTimeS / total
}

// Instructions returns total retired instructions.
func (m *Machine) Instructions() float64 { return m.instructions }

// Uops returns total retired uops.
func (m *Machine) Uops() float64 { return m.uops }

// powerNow is the rail power at setting sp for an observed UPC. It
// adds the same operands in the same order as power.Model.Power, with
// the tabulated leakage in place of Leakage(V). With a thermal model
// attached it is PowerAt at the current die temperature instead —
// the leakage scaled exactly as LeakageAt scales it — so leakage
// feeds back into heat.
func (m *Machine) powerNow(sp *settingPower, upc float64) float64 {
	leak := sp.leakW
	if m.therm != nil {
		leak *= m.power.LeakageScale(m.therm.TemperatureC())
	}
	return m.power.Dynamic(sp.point.VoltageV, sp.point.FrequencyHz, upc) + leak + m.baseW
}

// handlerPower is powerNow at the handler's nominal UPC, read straight
// from the table when no die temperature scales the leakage.
func (m *Machine) handlerPower(sp *settingPower) float64 {
	if m.therm != nil {
		return m.powerNow(sp, handlerUPC)
	}
	return sp.handlerW
}

// emit records one waveform span and advances time/energy.
func (m *Machine) emit(dur, watts, volts float64) {
	if dur <= 0 {
		return
	}
	if m.rec != nil {
		m.rec.Record(Span{T0: m.nowS, Dur: dur, Watts: watts, Volts: volts, Port: m.port.Bits()})
	}
	if m.therm != nil {
		m.therm.Advance(watts, dur)
	}
	m.nowS += dur
	m.energyJ += watts * dur
}

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
	return m.RunMarked(gen, handler, nil, nil)
}

// RunMarked is Run that also reports the run's totals part way: just
// before the generator is asked for item n, for each n in marks (so
// after exactly n items have executed, their interrupts included), it
// calls mark with the RunResult a Run over only those items would have
// returned. Marks must be positive and ascending; a mark the stream
// ends before is never reported. A mark costs O(1); a run without
// marks pays one integer compare per item.
func (m *Machine) RunMarked(gen workload.Generator, handler Handler, marks []int, mark func(RunResult)) (RunResult, error) {
	slot, err := m.uopSlot()
	if err != nil {
		return RunResult{}, err
	}
	start := m.totals()

	m.port.Set(PortBitApp)
	defer m.port.Clear(PortBitApp)

	next := -1 // item count of the next mark
	if len(marks) > 0 {
		next, marks = marks[0], marks[1:]
	}
	for n := 0; ; n++ {
		if n == next {
			mark(m.totals().since(start))
			next = -1
			if len(marks) > 0 {
				next, marks = marks[0], marks[1:]
			}
		}
		w, ok := gen.Next()
		if !ok {
			break
		}
		if err := w.Validate(); err != nil {
			return RunResult{}, fmt.Errorf("machine: generator %q: %w", gen.Name(), err)
		}
		remaining := w
		for remaining.Uops > 0 {
			until, err := m.pmcs.UntilOverflow(slot)
			if err != nil {
				return RunResult{}, err
			}
			chunkUops := remaining.Uops
			if f := float64(until); f < chunkUops {
				chunkUops = f
			}
			frac := chunkUops / w.Uops
			chunk := w
			chunk.Uops = chunkUops
			chunk.Instructions = w.Instructions * frac

			// The chunk is w with its uops cut to (0, w.Uops] and its
			// instructions scaled alike, so it is as valid as w, and New
			// checked every ladder frequency: execute it unchecked.
			sp := &m.settings[m.ctrl.Current()]
			res := m.cpu.ExecuteValid(chunk, sp.point.FrequencyHz)
			m.emit(res.Time, m.powerNow(sp, res.UPC), sp.point.VoltageV)
			m.appTimeS += res.Time
			m.instructions += res.Instructions
			m.uops += res.Uops

			pmi := m.pmcs.Advance(pmc.Delta{
				Uops:            uint64(math.Round(res.Uops)),
				Instructions:    uint64(math.Round(res.Instructions)),
				MemTransactions: uint64(math.Round(res.MemTransactions)),
				Cycles:          uint64(math.Round(res.Cycles)),
			})
			remaining.Uops -= chunkUops
			remaining.Instructions -= chunk.Instructions

			if pmi && handler != nil {
				m.port.Set(PortBitHandler)
				preTrans := m.ctrl.TimeInTransition()
				overhead := handler.HandlePMI(m)
				if overhead < 0 {
					overhead = 0
				}
				overhead += m.ctrl.TimeInTransition() - preTrans
				sp := &m.settings[m.ctrl.Current()]
				m.emit(overhead, m.handlerPower(sp), sp.point.VoltageV)
				m.handlerTimeS += overhead
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
	return totals{m.nowS, m.energyJ, m.handlerTimeS, m.instructions, m.uops, m.pmcs.PMICount(), m.ctrl.Transitions()}
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
