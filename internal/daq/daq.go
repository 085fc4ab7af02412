// Package daq models the paper's real-power measurement path
// (Figure 9, region 3): two 2 mΩ sense resistors between the voltage
// regulator and the CPU, a signal conditioning unit computing the
// voltage drops, a National Instruments DAQ sampling eight signals
// every 40 µs, and a logging machine that computes per-phase power
// from the sampled currents and the parallel-port marker bits.
//
// Measurement here is deliberately independent of the analytic power
// model: the machine emits a voltage/power waveform, the DAQ samples
// it through the resistor network with measurement noise, and the
// logging machine reconstructs power as VCPU·(I1+I2) — so agreement
// between DAQ-reported and model energy is a meaningful end-to-end
// check, exactly as the paper's separate measurement hardware was.
package daq

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"phasemon/internal/machine"
)

// Waveform records the machine's power output; it implements
// machine.Recorder.
type Waveform struct {
	spans []machine.Span
}

// NewWaveform returns an empty waveform.
func NewWaveform() *Waveform { return &Waveform{} }

// Record implements machine.Recorder.
func (w *Waveform) Record(s machine.Span) {
	if s.Dur <= 0 {
		return
	}
	w.spans = append(w.spans, s)
}

// Spans returns the recorded spans in arrival order. Callers must not
// modify the slice.
func (w *Waveform) Spans() []machine.Span { return w.spans }

// Len returns the number of spans.
func (w *Waveform) Len() int { return len(w.spans) }

// Config parameterizes the acquisition hardware.
type Config struct {
	// SamplePeriodS is the DAQ sampling period; the paper's DAQPad
	// 6070E samples its eight signals every 40 µs.
	SamplePeriodS float64
	// SenseOhm is each sense resistor's value (2 mΩ on the paper's
	// board).
	SenseOhm float64
	// NoiseV is the RMS Gaussian noise on each measured voltage after
	// signal conditioning.
	NoiseV float64
	// Seed drives the noise generator.
	Seed int64
}

// DefaultConfig returns the paper's measurement parameters with a
// small realistic noise floor.
func DefaultConfig() Config {
	return Config{
		SamplePeriodS: 40e-6,
		SenseOhm:      0.002,
		NoiseV:        20e-6,
		Seed:          1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !(c.SamplePeriodS > 0) {
		return fmt.Errorf("daq: sample period %v must be positive", c.SamplePeriodS)
	}
	if !(c.SenseOhm > 0) {
		return fmt.Errorf("daq: sense resistance %v must be positive", c.SenseOhm)
	}
	if c.NoiseV < 0 {
		return fmt.Errorf("daq: noise %v must be non-negative", c.NoiseV)
	}
	return nil
}

// Sample is one DAQ record after signal conditioning: the CPU voltage,
// the two branch currents computed from the resistor drops, the
// parallel-port state, and the sample time.
type Sample struct {
	T    float64
	VCPU float64
	I1   float64
	I2   float64
	Port uint8
}

// PowerW reconstructs instantaneous CPU power the way the paper's
// logging machine does: P = VCPU · (I1 + I2).
func (s Sample) PowerW() float64 { return s.VCPU * (s.I1 + s.I2) }

// ErrEmptyWaveform reports acquisition over an empty waveform.
var ErrEmptyWaveform = errors.New("daq: empty waveform")

// Acquire samples the waveform through the measurement chain. For each
// sample instant it locates the active span, derives the physical
// signals (total current I = P/V split across the two sense
// resistors, upstream voltages V1 = V2 = VCPU + I/2·R), adds
// measurement noise to the three measured voltages, and applies the
// conditioning unit's arithmetic to recover the currents.
func Acquire(w *Waveform, cfg Config) ([]Sample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spans := w.Spans()
	if len(spans) == 0 {
		return nil, ErrEmptyWaveform
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := spans[0].T0
	end := spans[len(spans)-1].T0 + spans[len(spans)-1].Dur

	var out []Sample
	si := 0
	for t := start; t < end; t += cfg.SamplePeriodS {
		// Advance to the span containing t. Spans are contiguous and
		// sorted; the sampling clock only moves forward.
		for si < len(spans)-1 && t >= spans[si].T0+spans[si].Dur {
			si++
		}
		sp := spans[si]
		if t < sp.T0 {
			continue // gap (should not occur with a contiguous waveform)
		}
		itotal := 0.0
		if sp.Volts > 0 {
			itotal = sp.Watts / sp.Volts
		}
		ibranch := itotal / 2
		// Each float64(...) rounds a product before its add, so no
		// architecture fuses the two.
		vup := sp.Volts + float64(ibranch*cfg.SenseOhm)

		// The three measured voltages, each with conditioning noise.
		v1 := vup + float64(rng.NormFloat64()*cfg.NoiseV)
		v2 := vup + float64(rng.NormFloat64()*cfg.NoiseV)
		vcpu := sp.Volts + float64(rng.NormFloat64()*cfg.NoiseV)

		out = append(out, Sample{
			T:    t,
			VCPU: vcpu,
			I1:   (v1 - vcpu) / cfg.SenseOhm,
			I2:   (v2 - vcpu) / cfg.SenseOhm,
			Port: sp.Port,
		})
	}
	return out, nil
}

// PhaseStat is the logging machine's per-phase aggregation, delimited
// by flips of the phase marker bit.
type PhaseStat struct {
	// Index is the phase sample's ordinal.
	Index int
	// T0 is the first sample time in the phase; DurS its extent.
	T0   float64
	DurS float64
	// EnergyJ and AvgPowerW are integrated from the samples.
	EnergyJ   float64
	AvgPowerW float64
	// Samples is how many DAQ records landed in the phase.
	Samples int
}

// Report is the logging machine's output for a run.
type Report struct {
	// TotalEnergyJ and TotalDurS integrate every sample.
	TotalEnergyJ float64
	TotalDurS    float64
	// AvgPowerW is total energy over total duration.
	AvgPowerW float64
	// AppEnergyJ and AppDurS cover samples with the application marker
	// set (DAQ bit 2).
	AppEnergyJ float64
	AppDurS    float64
	// HandlerDurS covers samples taken inside the PMI handler (bit 1).
	HandlerDurS float64
	// Phases are the per-interval statistics (bit 0 flips), computed
	// over application samples outside the handler.
	Phases []PhaseStat
}

// Analyze reduces a sample stream to the Report, reproducing the
// paper's per-phase power attribution.
func Analyze(samples []Sample, cfg Config) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	if len(samples) == 0 {
		return Report{}, fmt.Errorf("daq: no samples to analyze")
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i].T < samples[j].T }) {
		return Report{}, fmt.Errorf("daq: samples out of order")
	}

	var rep Report
	dt := cfg.SamplePeriodS
	var cur *PhaseStat
	lastPhaseBit := uint8(0xFF) // sentinel: first app sample opens a phase

	for _, s := range samples {
		p := s.PowerW()
		// float64(p * dt) rounds each product before its add, so no
		// architecture fuses the two.
		rep.TotalEnergyJ += float64(p * dt)
		rep.TotalDurS += dt
		if s.Port&machine.PortBitHandler != 0 {
			rep.HandlerDurS += dt
		}
		if s.Port&machine.PortBitApp == 0 {
			continue
		}
		rep.AppEnergyJ += float64(p * dt)
		rep.AppDurS += dt
		if s.Port&machine.PortBitHandler != 0 {
			continue // handler time is not attributed to a phase
		}
		bit := s.Port & machine.PortBitPhase
		if bit != lastPhaseBit {
			rep.Phases = append(rep.Phases, PhaseStat{Index: len(rep.Phases), T0: s.T})
			cur = &rep.Phases[len(rep.Phases)-1]
			lastPhaseBit = bit
		}
		cur.Samples++
		cur.DurS += dt
		cur.EnergyJ += float64(p * dt)
	}
	for i := range rep.Phases {
		if rep.Phases[i].DurS > 0 {
			rep.Phases[i].AvgPowerW = rep.Phases[i].EnergyJ / rep.Phases[i].DurS
		}
	}
	if rep.TotalDurS > 0 {
		rep.AvgPowerW = rep.TotalEnergyJ / rep.TotalDurS
	}
	return rep, nil
}
