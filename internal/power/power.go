// Package power models CPU power consumption as a function of supply
// voltage, clock frequency and activity.
//
// The model is the standard CMOS decomposition
//
//	P = Ceff·act(UPC)·V²·f  +  Pleak(V)  +  Pbase
//
// where the dynamic term scales with switched capacitance, activity,
// the square of voltage and the clock, the leakage term grows
// super-linearly with voltage, and Pbase covers always-on platform
// components on the measured CPU rail. Parameters are calibrated so a
// busy Pentium-M at its 1.5 GHz / 1.484 V top operating point
// dissipates roughly 10–12 W and an idle-ish memory-bound interval at
// 600 MHz / 0.956 V a couple of watts — the scale of the paper's
// Figure 10 — but absolute watts are not the reproduction target;
// power *ratios* across operating points are.
package power

import (
	"fmt"
	"math"
)

// Config holds the power-model parameters.
type Config struct {
	// CeffF is the effective switched capacitance in farads.
	CeffF float64
	// ActivityMin is the activity factor of a fully stalled core
	// (clock tree and idle structures still switch).
	ActivityMin float64
	// ActivitySlope converts observed UPC into additional activity:
	// act = min(ActivityMin + ActivitySlope·UPC, ActivityMax).
	ActivitySlope float64
	// ActivityMax caps the activity factor.
	ActivityMax float64
	// LeakW is the leakage power in watts at voltage VRef.
	LeakW float64
	// LeakAlpha is the exponential voltage sensitivity of leakage:
	// Pleak(V) = LeakW·(V/VRef)²·exp(LeakAlpha·(V−VRef)).
	LeakAlpha float64
	// VRefV is the reference voltage for leakage calibration.
	VRefV float64
	// BaseW is the constant floor on the measured CPU rail.
	BaseW float64
	// LeakTempCoeffPerC is the exponential temperature sensitivity of
	// leakage: PowerAt multiplies the leakage term by
	// exp(LeakTempCoeffPerC·(T − LeakTempRefC)). Zero disables the
	// coupling (Power then equals PowerAt at any temperature).
	LeakTempCoeffPerC float64
	// LeakTempRefC is the temperature the LeakW calibration refers to.
	LeakTempRefC float64
}

// DefaultConfig returns the Pentium-M-calibrated parameters.
func DefaultConfig() Config {
	return Config{
		CeffF:         2.4e-9,
		ActivityMin:   0.5,
		ActivitySlope: 0.35,
		ActivityMax:   1.3,
		LeakW:         1.5,
		LeakAlpha:     2.0,
		VRefV:         1.484,
		BaseW:         0.6,
		// Leakage roughly doubles every 25 °C around a 55 °C reference.
		LeakTempCoeffPerC: math.Ln2 / 25,
		LeakTempRefC:      55,
	}
}

// Validate checks the configuration for physical plausibility. Every
// parameter must be finite: a machine tabulates leakage per operating
// point once, so a NaN or infinite parameter would poison every
// interval it runs.
func (c Config) Validate() error {
	switch {
	case !(c.CeffF > 0 && c.CeffF <= math.MaxFloat64):
		return fmt.Errorf("power: Ceff %v must be positive and finite", c.CeffF)
	case !(c.ActivityMin > 0 && c.ActivityMin <= math.MaxFloat64):
		return fmt.Errorf("power: ActivityMin %v must be positive and finite", c.ActivityMin)
	case !(c.ActivitySlope >= 0 && c.ActivitySlope <= math.MaxFloat64):
		return fmt.Errorf("power: ActivitySlope %v must be non-negative and finite", c.ActivitySlope)
	case !(c.ActivityMax >= c.ActivityMin && c.ActivityMax <= math.MaxFloat64):
		return fmt.Errorf("power: ActivityMax %v must be finite and at least ActivityMin %v", c.ActivityMax, c.ActivityMin)
	case !(c.LeakW >= 0 && c.LeakW <= math.MaxFloat64):
		return fmt.Errorf("power: LeakW %v must be non-negative and finite", c.LeakW)
	case !finite(c.LeakAlpha):
		return fmt.Errorf("power: LeakAlpha %v must be finite", c.LeakAlpha)
	case !(c.VRefV > 0 && c.VRefV <= math.MaxFloat64):
		return fmt.Errorf("power: VRef %v must be positive and finite", c.VRefV)
	case !(c.BaseW >= 0 && c.BaseW <= math.MaxFloat64):
		return fmt.Errorf("power: BaseW %v must be non-negative and finite", c.BaseW)
	case !finite(c.LeakTempCoeffPerC):
		return fmt.Errorf("power: LeakTempCoeffPerC %v must be finite", c.LeakTempCoeffPerC)
	case !finite(c.LeakTempRefC):
		return fmt.Errorf("power: LeakTempRefC %v must be finite", c.LeakTempRefC)
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return x >= -math.MaxFloat64 && x <= math.MaxFloat64 }

// Model computes power from operating conditions.
type Model struct {
	cfg Config
}

// New builds a model from the configuration.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg}, nil
}

// MustNew is New that panics on invalid configuration.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Default returns a model with DefaultConfig.
func Default() *Model { return MustNew(DefaultConfig()) }

// Config returns the model's parameters.
func (m *Model) Config() Config { return m.cfg }

// Activity returns the activity factor for an observed UPC.
func (m *Model) Activity(upc float64) float64 {
	if math.IsNaN(upc) || upc < 0 {
		upc = 0
	}
	// float64 rounds the product before the add, so no architecture
	// fuses the two.
	a := m.cfg.ActivityMin + float64(m.cfg.ActivitySlope*upc)
	if a > m.cfg.ActivityMax {
		a = m.cfg.ActivityMax
	}
	return a
}

// Dynamic returns the dynamic power in watts.
func (m *Model) Dynamic(voltageV, freqHz, upc float64) float64 {
	return m.cfg.CeffF * m.Activity(upc) * voltageV * voltageV * freqHz
}

// Leakage returns the leakage power in watts at the given voltage.
func (m *Model) Leakage(voltageV float64) float64 {
	r := voltageV / m.cfg.VRefV
	return m.cfg.LeakW * r * r * math.Exp(m.cfg.LeakAlpha*(voltageV-m.cfg.VRefV))
}

// Power returns the total CPU rail power in watts for the operating
// conditions, at the leakage calibration temperature.
func (m *Model) Power(voltageV, freqHz, upc float64) float64 {
	// float64 rounds each term's product before the adds, so no
	// architecture fuses them.
	return float64(m.Dynamic(voltageV, freqHz, upc)) + float64(m.Leakage(voltageV)) + m.cfg.BaseW
}

// LeakageAt returns the leakage power at a die temperature: leakage
// current grows exponentially with temperature, the coupling that
// makes hot chips hotter and gives thermal management a superlinear
// energy payoff.
func (m *Model) LeakageAt(voltageV, tempC float64) float64 {
	return m.Leakage(voltageV) * m.LeakageScale(tempC)
}

// LeakageScale returns the factor LeakageAt applies to Leakage at a
// die temperature: exp(LeakTempCoeffPerC·(T − LeakTempRefC)), or
// exactly 1 when the coupling is disabled.
func (m *Model) LeakageScale(tempC float64) float64 {
	if m.cfg.LeakTempCoeffPerC == 0 {
		return 1
	}
	return math.Exp(m.cfg.LeakTempCoeffPerC * (tempC - m.cfg.LeakTempRefC))
}

// PowerAt is Power with temperature-dependent leakage.
//
//lint:unusedexport reference oracle: tests check machine's precomputed power table against it
func (m *Model) PowerAt(voltageV, freqHz, upc, tempC float64) float64 {
	// float64 rounds each term's product before the adds, so no
	// architecture fuses them.
	return float64(m.Dynamic(voltageV, freqHz, upc)) + float64(m.LeakageAt(voltageV, tempC)) + m.cfg.BaseW
}
