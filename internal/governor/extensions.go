package governor

import (
	"fmt"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/kernelsim"
	"phasemon/internal/phase"
	"phasemon/internal/power"
	"phasemon/internal/thermal"
)

// This file implements the management goals beyond EDP that the paper
// names as further applications of its phase prediction framework
// (Sections 1 and 8): bounding power consumption and dynamic thermal
// management.

// ThermalThrottle is a kernelsim.Actuator implementing dynamic thermal
// management on top of phase-predicted DVFS: it applies the
// translation's setting as long as the die is cool, throttles to a
// slower floor as the temperature approaches the limit, and pins the
// slowest operating point once the limit is reached.
type ThermalThrottle struct {
	// Translation supplies the unconstrained phase-to-setting mapping.
	Translation *dvfs.Translation
	// LimitC is the die temperature limit.
	LimitC float64
	// MarginC is the guard band below the limit in which pre-emptive
	// throttling starts; zero selects 3 °C.
	MarginC float64
	// ThrottleFloor is the fastest setting allowed inside the guard
	// band (a ladder index; larger is slower). Zero selects setting 2
	// (1.2 GHz on the Pentium-M ladder).
	ThrottleFloor dvfs.Setting
}

var _ kernelsim.Actuator = (*ThermalThrottle)(nil)

// Choose implements kernelsim.Actuator.
func (a *ThermalThrottle) Choose(die *thermal.Model, predicted phase.ID) dvfs.Setting {
	s := a.Translation.Setting(predicted)
	if die == nil {
		return s
	}
	margin := a.MarginC
	if margin <= 0 {
		margin = 3
	}
	floor := a.ThrottleFloor
	if floor == 0 {
		floor = 2
	}
	ladder := a.Translation.Ladder()
	if !ladder.ValidSetting(floor) {
		floor = ladder.Slowest()
	}
	switch t := die.TemperatureC(); {
	case t >= a.LimitC:
		return ladder.Slowest()
	case t >= a.LimitC-margin:
		if s < floor {
			return floor
		}
	}
	return s
}

// PowerCapEstimator predicts the CPU power of code with the given
// Mem/Uop rate at an operating point, for deriving power-cap
// translations.
type PowerCapEstimator func(memPerUop float64, pt dvfs.OperatingPoint) float64

// DefaultPowerCapEstimator builds an estimator from the platform's
// timing and power models, assuming the most power-hungry plausible
// code in each phase: the phase range's CPU-bound corner running at a
// pessimistic core UPC.
func DefaultPowerCapEstimator(cpu *cpusim.Model, pow *power.Model, worstCoreUPC float64) PowerCapEstimator {
	return func(memPerUop float64, pt dvfs.OperatingPoint) float64 {
		upc := cpu.ObservedUPC(memPerUop, worstCoreUPC, 1, pt.FrequencyHz)
		return pow.Power(pt.VoltageV, pt.FrequencyHz, upc)
	}
}

// DerivePowerCap builds a translation bounding per-interval CPU power
// at capW: each phase gets the fastest operating point whose estimated
// power — at the phase's most power-hungry corner — stays at or below
// the cap. Phases for which even the slowest point exceeds the cap get
// the slowest point (best effort).
func DerivePowerCap(l *dvfs.Ladder, tab *phase.Table, est PowerCapEstimator, capW float64) (*dvfs.Translation, error) {
	if !(capW > 0) {
		return nil, fmt.Errorf("governor: power cap %v must be positive", capW)
	}
	mapping := make([]dvfs.Setting, tab.NumPhases())
	for i := range mapping {
		lo, _ := tab.Range(phase.ID(i + 1))
		chosen := l.Slowest()
		for s := l.Fastest(); s <= l.Slowest(); s++ {
			if est(lo, l.Point(s)) <= capW {
				chosen = s
				break
			}
		}
		mapping[i] = chosen
	}
	return dvfs.NewTranslation(l, tab.NumPhases(), mapping)
}
