package machine

import (
	"math"
	"testing"

	"phasemon/internal/dvfs"
	"phasemon/internal/power"
	"phasemon/internal/thermal"
)

// TestPowerTableMatchesModel: the per-setting table must reproduce the
// power model bit for bit — Power without a thermal model, PowerAt at
// the die temperature with one, and Power at the handler's UPC of 1
// for the handler table — on the paper's ladder and on a custom ladder
// under non-default parameters.
func TestPowerTableMatchesModel(t *testing.T) {
	custom, err := dvfs.NewLadder("custom", []dvfs.OperatingPoint{
		{FrequencyHz: 2.1e9, VoltageV: 1.31},
		{FrequencyHz: 1.3e9, VoltageV: 1.07},
		{FrequencyHz: 0.45e9, VoltageV: 0.83},
	})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := power.DefaultConfig()
	pcfg.CeffF = 3.1e-9
	pcfg.ActivitySlope = 0.42
	pcfg.LeakW = 2.3
	pcfg.LeakAlpha = 2.7
	pcfg.VRefV = 1.25
	pcfg.BaseW = 0.35
	pcfg.LeakTempCoeffPerC = 0.031
	pcfg.LeakTempRefC = 47
	cases := []struct {
		name   string
		ladder *dvfs.Ladder
		model  *power.Model
	}{
		{"pentium-m", dvfs.PentiumM(), power.Default()},
		{"custom", custom, power.MustNew(pcfg)},
	}
	upcs := []float64{0, 0.3, 1, 1.5, 10, -1, math.NaN()}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range cases {
		cold := newMachine(Config{Ladder: c.ladder}, c.model)
		if len(cold.settings) != c.ladder.Len() {
			t.Fatalf("%s: %d table rows for %d settings", c.name, len(cold.settings), c.ladder.Len())
		}
		for s := range cold.settings {
			p := c.ladder.Point(dvfs.Setting(s))
			v, f := p.VoltageV, p.FrequencyHz
			sp := &cold.settings[s]
			for _, upc := range upcs {
				if got, want := cold.powerNow(sp, upc), c.model.Power(v, f, upc); !same(got, want) {
					t.Errorf("%s setting %d upc %v: table %v, Power %v", c.name, s, upc, got, want)
				}
			}
			if got, want := cold.handlerPower(sp), c.model.Power(v, f, 1.0); !same(got, want) {
				t.Errorf("%s setting %d: handler table %v, Power %v", c.name, s, got, want)
			}
			for _, tempC := range []float64{20, 55, 90} {
				th, err := thermal.New(thermal.Config{ResistanceKPerW: 2, CapacitanceJPerK: 2.5, AmbientC: 35, InitialC: tempC})
				if err != nil {
					t.Fatal(err)
				}
				hot := newMachine(Config{Ladder: c.ladder, Thermal: th}, c.model)
				hsp := &hot.settings[s]
				for _, upc := range upcs {
					if got, want := hot.powerNow(hsp, upc), c.model.PowerAt(v, f, upc, tempC); !same(got, want) {
						t.Errorf("%s setting %d upc %v at %v°C: table %v, PowerAt %v", c.name, s, upc, tempC, got, want)
					}
				}
				if got, want := hot.handlerPower(hsp), c.model.PowerAt(v, f, 1.0, tempC); !same(got, want) {
					t.Errorf("%s setting %d at %v°C: handler %v, PowerAt %v", c.name, s, tempC, got, want)
				}
			}
		}
	}
}
