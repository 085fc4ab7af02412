// Package thermal models the processor's die temperature with a
// lumped thermal-RC network, enabling the dynamic thermal management
// application the paper names as a direct client of its phase
// prediction framework (Sections 1 and 8).
//
// The model is first order: a thermal resistance R (junction to
// ambient, K/W) and capacitance C (J/K) integrate power into
// temperature:
//
//	C · dT/dt = P − (T − Tamb)/R
//
// Steady state is Tamb + P·R; the time constant R·C is a few seconds,
// so die temperature responds to phase-scale (100 ms) power changes
// smoothly — the regime in which proactive throttling pays off.
package thermal

import (
	"fmt"
	"math"
)

// Config parameterizes the RC network.
type Config struct {
	// ResistanceKPerW is the junction-to-ambient thermal resistance.
	ResistanceKPerW float64
	// CapacitanceJPerK is the lumped thermal capacitance.
	CapacitanceJPerK float64
	// AmbientC is the ambient temperature in °C.
	AmbientC float64
	// InitialC is the initial die temperature; zero selects ambient.
	InitialC float64
}

// DefaultConfig returns parameters calibrated to a Pentium-M-class
// mobile package: ~2 K/W to ambient and a ~5 s time constant, so a
// sustained 10 W run settles around 55 °C over a 35 °C ambient.
func DefaultConfig() Config {
	return Config{
		ResistanceKPerW:  2.0,
		CapacitanceJPerK: 2.5,
		AmbientC:         35,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case !(c.ResistanceKPerW > 0) || math.IsInf(c.ResistanceKPerW, 0):
		return fmt.Errorf("thermal: resistance %v must be positive", c.ResistanceKPerW)
	case !(c.CapacitanceJPerK > 0) || math.IsInf(c.CapacitanceJPerK, 0):
		return fmt.Errorf("thermal: capacitance %v must be positive", c.CapacitanceJPerK)
	case math.IsNaN(c.AmbientC) || math.IsInf(c.AmbientC, 0):
		return fmt.Errorf("thermal: ambient %v must be finite", c.AmbientC)
	case math.IsNaN(c.InitialC) || math.IsInf(c.InitialC, 0):
		return fmt.Errorf("thermal: initial temperature %v must be finite", c.InitialC)
	}
	return nil
}

// Model tracks die temperature.
type Model struct {
	cfg   Config
	tempC float64
	peakC float64
}

// New builds a model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := cfg.InitialC
	if t == 0 {
		t = cfg.AmbientC
	}
	return &Model{cfg: cfg, tempC: t, peakC: t}, nil
}

// TemperatureC returns the current die temperature.
func (m *Model) TemperatureC() float64 { return m.tempC }

// PeakC returns the highest temperature reached since construction or
// the last Reset.
func (m *Model) PeakC() float64 { return m.peakC }

// SteadyStateC returns the equilibrium temperature under constant
// power.
func (m *Model) SteadyStateC(powerW float64) float64 {
	// float64 rounds the product before the add, so no architecture
	// fuses the two.
	return m.cfg.AmbientC + float64(powerW*m.cfg.ResistanceKPerW)
}

// Advance integrates the RC network over dt seconds of constant power.
// It uses the exact exponential solution, so arbitrarily long steps
// remain stable.
func (m *Model) Advance(powerW, dtS float64) {
	if dtS <= 0 || math.IsNaN(powerW) {
		return
	}
	target := m.SteadyStateC(powerW)
	tau := m.cfg.ResistanceKPerW * m.cfg.CapacitanceJPerK
	// float64 rounds the product before the add, so no architecture
	// fuses the two.
	m.tempC = target + float64((m.tempC-target)*math.Exp(-dtS/tau))
	if m.tempC > m.peakC {
		m.peakC = m.tempC
	}
}

// Reset returns the die to its initial temperature.
func (m *Model) Reset() {
	t := m.cfg.InitialC
	if t == 0 {
		t = m.cfg.AmbientC
	}
	m.tempC = t
	m.peakC = t
}
