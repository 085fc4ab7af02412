package power

import (
	"math"
	"math/rand"
	"testing"
)

func TestDefaultCalibrationScale(t *testing.T) {
	m := Default()
	// Busy top operating point: roughly the 8-14 W band of Figure 10.
	top := m.Power(1.484, 1.5e9, 1.2)
	if top < 8 || top > 14 {
		t.Errorf("top-point busy power = %.2f W, want 8..14 W", top)
	}
	// Slow memory-bound point: a few watts at most.
	bottom := m.Power(0.956, 600e6, 0.3)
	if bottom < 0.5 || bottom > 4 {
		t.Errorf("bottom-point power = %.2f W, want 0.5..4 W", bottom)
	}
	// DVFS must buy at least 3x power at the extremes for the paper's
	// >60% EDP improvements on memory-bound workloads to be possible.
	if top/bottom < 3 {
		t.Errorf("top/bottom power ratio = %.2f, want >= 3", top/bottom)
	}
}

func TestPowerMonotonicity(t *testing.T) {
	m := Default()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		v := 0.9 + rng.Float64()*0.6
		f := 600e6 + rng.Float64()*900e6
		u := rng.Float64() * 2
		p := m.Power(v, f, u)
		// Higher voltage, frequency, or UPC never reduces power.
		if m.Power(v+0.05, f, u) < p {
			t.Fatalf("power decreased with voltage at v=%v f=%v u=%v", v, f, u)
		}
		if m.Power(v, f+50e6, u) < p {
			t.Fatalf("power decreased with frequency at v=%v f=%v u=%v", v, f, u)
		}
		if m.Power(v, f, u+0.1) < p {
			t.Fatalf("power decreased with UPC at v=%v f=%v u=%v", v, f, u)
		}
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("non-physical power %v", p)
		}
	}
}

func TestActivityClamping(t *testing.T) {
	m := Default()
	cfg := m.Config()
	if got := m.Activity(0); got != cfg.ActivityMin {
		t.Errorf("Activity(0) = %v, want min %v", got, cfg.ActivityMin)
	}
	if got := m.Activity(100); got != cfg.ActivityMax {
		t.Errorf("Activity(100) = %v, want max %v", got, cfg.ActivityMax)
	}
	for _, u := range []float64{math.NaN(), -1} {
		if got := m.Activity(u); got != cfg.ActivityMin {
			t.Errorf("Activity(%v) = %v, want clamped to min", u, got)
		}
	}
}

func TestLeakageVoltageSensitivity(t *testing.T) {
	m := Default()
	cfg := m.Config()
	if got := m.Leakage(cfg.VRefV); math.Abs(got-cfg.LeakW) > 1e-12 {
		t.Errorf("Leakage(VRef) = %v, want %v", got, cfg.LeakW)
	}
	// Leakage at the lowest voltage is a small fraction of reference.
	low := m.Leakage(0.956)
	if low >= cfg.LeakW/2 {
		t.Errorf("Leakage(0.956) = %v, want well below %v", low, cfg.LeakW)
	}
	if low <= 0 {
		t.Errorf("Leakage must stay positive, got %v", low)
	}
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.CeffF = 0 },
		func(c *Config) { c.CeffF = -1 },
		func(c *Config) { c.ActivityMin = 0 },
		func(c *Config) { c.ActivitySlope = -1 },
		func(c *Config) { c.ActivityMax = c.ActivityMin / 2 },
		func(c *Config) { c.LeakW = -1 },
		func(c *Config) { c.VRefV = 0 },
		func(c *Config) { c.BaseW = -0.5 },
		func(c *Config) { c.BaseW = math.NaN() },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if _, err := New(c); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
	if _, err := New(base); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestConfigRejectsNonFinite sets each parameter in turn to NaN and to
// ±Inf: a machine freezes leakage into a per-setting table, so a
// non-finite parameter must fail at New rather than poison every
// interval. Finite extremes of the signed parameters stay accepted.
func TestConfigRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		ptr  func(*Config) *float64
	}{
		{"CeffF", func(c *Config) *float64 { return &c.CeffF }},
		{"ActivityMin", func(c *Config) *float64 { return &c.ActivityMin }},
		{"ActivitySlope", func(c *Config) *float64 { return &c.ActivitySlope }},
		{"ActivityMax", func(c *Config) *float64 { return &c.ActivityMax }},
		{"LeakW", func(c *Config) *float64 { return &c.LeakW }},
		{"LeakAlpha", func(c *Config) *float64 { return &c.LeakAlpha }},
		{"VRefV", func(c *Config) *float64 { return &c.VRefV }},
		{"BaseW", func(c *Config) *float64 { return &c.BaseW }},
		{"LeakTempCoeffPerC", func(c *Config) *float64 { return &c.LeakTempCoeffPerC }},
		{"LeakTempRefC", func(c *Config) *float64 { return &c.LeakTempRefC }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := DefaultConfig()
			*f.ptr(&c) = v
			if _, err := New(c); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
		}
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.LeakAlpha = -3 },
		func(c *Config) { c.LeakTempCoeffPerC = 0 },
		func(c *Config) { c.LeakTempCoeffPerC = -0.01 },
		func(c *Config) { c.LeakTempRefC = -40 },
		func(c *Config) { c.ActivitySlope = 0 },
		func(c *Config) { c.LeakW = 0 },
		func(c *Config) { c.BaseW = 0 },
	} {
		c := DefaultConfig()
		mut(&c)
		if _, err := New(c); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestDVFSEnergyOrdering(t *testing.T) {
	// Running the same wall-clock duration at a lower operating point
	// always costs less energy — the premise of DVFS.
	m := Default()
	points := []struct{ f, v float64 }{
		{1500e6, 1.484}, {1400e6, 1.452}, {1200e6, 1.356},
		{1000e6, 1.228}, {800e6, 1.116}, {600e6, 0.956},
	}
	prev := math.Inf(1)
	for _, p := range points {
		e := m.Power(p.v, p.f, 1.0) // joules over one second
		if e >= prev {
			t.Errorf("energy at %v Hz (%v) not below previous (%v)", p.f, e, prev)
		}
		prev = e
	}
}
