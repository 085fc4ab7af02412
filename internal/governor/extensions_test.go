package governor

import (
	"testing"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/power"
	"phasemon/internal/thermal"
)

func TestThermalThrottleBoundsTemperature(t *testing.T) {
	// crafty is flat CPU-bound: unmanaged it runs at full power and
	// heats toward ~57 °C steady state. With DTM at a 50 °C limit the
	// peak must stay at the limit (within the control granularity) at
	// a measurable performance cost.
	tr, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(actuator *ThermalThrottle) (*Result, *thermal.Model) {
		th, err := thermal.New(thermal.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Machine: machine.Config{Thermal: th}}
		var pol Policy = Unmanaged()
		if actuator != nil {
			cfg.Actuator = actuator
			pol = Proactive(8, 128)
		}
		r, err := Run(gen(t, "crafty_in", 600), pol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, th
	}

	base, hotModel := runWith(nil)
	const limit = 50.0
	if hotModel.PeakC() <= limit {
		t.Fatalf("unmanaged peak %v never exceeded the %v°C limit; test is vacuous", hotModel.PeakC(), limit)
	}

	managed, coolModel := runWith(&ThermalThrottle{Translation: tr, LimitC: limit})
	if coolModel.PeakC() > limit+1.0 {
		t.Errorf("DTM peak %v exceeds limit %v by more than the control slack", coolModel.PeakC(), limit)
	}
	if !(managed.Run.TimeS > base.Run.TimeS) {
		t.Errorf("throttled run not slower: %v vs %v", managed.Run.TimeS, base.Run.TimeS)
	}
}

func TestThermalThrottleInactiveWhenCool(t *testing.T) {
	// A memory-bound, low-power workload never approaches the limit,
	// so DTM must behave exactly like the plain translation.
	tr, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermal.New(thermal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := gen(t, "swim_in", 300)
	plain, err := Run(g, Proactive(8, 128), Config{})
	if err != nil {
		t.Fatal(err)
	}
	dtm, err := Run(g, Proactive(8, 128), Config{
		Actuator: &ThermalThrottle{Translation: tr, LimitC: 90},
		Machine:  machine.Config{Thermal: th},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Log) != len(dtm.Log) {
		t.Fatalf("log lengths differ")
	}
	for i := range plain.Log {
		if plain.Log[i].Setting != dtm.Log[i].Setting {
			t.Fatalf("interval %d: cool DTM chose %d, plain chose %d",
				i, dtm.Log[i].Setting, plain.Log[i].Setting)
		}
	}
}

func TestThermalThrottleWithoutThermalModel(t *testing.T) {
	// Without a thermal model attached, the actuator degrades to the
	// plain translation instead of panicking.
	tr, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
	a := &ThermalThrottle{Translation: tr, LimitC: 10}
	if got := a.Choose(nil, 3); got != tr.Setting(3) {
		t.Errorf("Choose = %d, want translation's %d", got, tr.Setting(3))
	}
}

func TestDerivePowerCap(t *testing.T) {
	cpu := cpusim.New(cpusim.DefaultConfig())
	pow := power.Default()
	ladder := dvfs.PentiumM()
	tab := phase.Default()
	est := DefaultPowerCapEstimator(cpu, pow, 1.5)

	// A generous cap changes nothing: every phase runs at full speed.
	generous, err := DerivePowerCap(ladder, tab, est, 100)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 6; p++ {
		if generous.Setting(phase.ID(p)) != ladder.Fastest() {
			t.Errorf("generous cap: phase %d not fastest", p)
		}
	}
	// An impossible cap pins everything at the slowest point.
	strict, err := DerivePowerCap(ladder, tab, est, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 6; p++ {
		if strict.Setting(phase.ID(p)) != ladder.Slowest() {
			t.Errorf("impossible cap: phase %d not slowest", p)
		}
	}
	// A mid cap respects the estimator for every phase.
	const cap = 6.0
	mid, err := DerivePowerCap(ladder, tab, est, cap)
	if err != nil {
		t.Fatal(err)
	}
	sawSlowdown := false
	for p := 1; p <= 6; p++ {
		s := mid.Setting(phase.ID(p))
		lo, _ := tab.Range(phase.ID(p))
		if got := est(lo, ladder.Point(s)); got > cap && s != ladder.Slowest() {
			t.Errorf("phase %d: estimated power %v exceeds cap at setting %d", p, got, s)
		}
		if s != ladder.Fastest() {
			sawSlowdown = true
		}
	}
	if !sawSlowdown {
		t.Error("a 6 W cap should force at least one phase off full speed")
	}
	if _, err := DerivePowerCap(ladder, tab, est, 0); err == nil {
		t.Error("zero cap accepted")
	}
}

func TestPowerCapRunBoundsAveragePower(t *testing.T) {
	cpu := cpusim.New(cpusim.DefaultConfig())
	pow := power.Default()
	ladder := dvfs.PentiumM()
	tab := phase.Default()
	const cap = 6.0
	tr, err := DerivePowerCap(ladder, tab, DefaultPowerCapEstimator(cpu, pow, 1.5), cap)
	if err != nil {
		t.Fatal(err)
	}
	// crafty at full speed draws ~10 W; under the cap translation its
	// whole-run average must respect the cap.
	g := gen(t, "crafty_in", 300)
	base, err := Run(g, Unmanaged(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Run(g, Proactive(8, 128), Config{Translation: tr})
	if err != nil {
		t.Fatal(err)
	}
	baseAvg := base.Run.EnergyJ / base.Run.TimeS
	cappedAvg := capped.Run.EnergyJ / capped.Run.TimeS
	if baseAvg <= cap {
		t.Fatalf("baseline power %v already under the cap; test is vacuous", baseAvg)
	}
	if cappedAvg > cap*1.02 {
		t.Errorf("capped average power %v exceeds %v W", cappedAvg, cap)
	}
}
