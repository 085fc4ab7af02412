package memhier

import (
	"math"
	"testing"
	"testing/quick"

	"phasemon/internal/phase"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutate := []func(*Config){
		func(c *Config) { c.L1.SizeBytes = 0 },
		func(c *Config) { c.L1.LineBytes = 0 },
		func(c *Config) { c.L1.LineBytes = c.L1.SizeBytes * 2 },
		func(c *Config) { c.L2.SizeBytes = c.L1.SizeBytes / 2 },
		func(c *Config) { c.ColdMissRate = -0.1 },
		func(c *Config) { c.ColdMissRate = 1 },
	}
	for i, f := range mutate {
		c := DefaultConfig()
		f(&c)
		if _, err := New(c); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestProfileValidation(t *testing.T) {
	m := Default()
	bad := []AccessProfile{
		{AccessesPerUop: -1},
		{AccessesPerUop: 0.3, WorkingSetBytes: math.Inf(1)},
		{AccessesPerUop: 0.3, WorkingSetBytes: 1 << 20, ReuseSkew: 1.5},
		{AccessesPerUop: 0.3, WorkingSetBytes: 1 << 20, SpatialRun: -2},
	}
	for i, p := range bad {
		if _, _, err := m.HitRates(p); err == nil {
			t.Errorf("case %d accepted by HitRates", i)
		}
		if _, err := m.MemPerUop(p); err == nil {
			t.Errorf("case %d accepted by MemPerUop", i)
		}
	}
}

func TestCacheResidentWorkloadsBarelyMiss(t *testing.T) {
	m := Default()
	p := AccessProfile{AccessesPerUop: 0.35, WorkingSetBytes: 16 << 10}
	l1, l2, err := m.HitRates(p)
	if err != nil {
		t.Fatal(err)
	}
	if l1 < 0.99 || l2 < 0.85 {
		t.Errorf("cache-resident hit rates %v/%v, want ~1 and high conditional L2", l1, l2)
	}
	mem, err := m.MemPerUop(p)
	if err != nil {
		t.Fatal(err)
	}
	// Cold misses only: deep phase-1 territory.
	if got := phase.Default().Classify(phase.Sample{MemPerUop: mem}); got != 1 {
		t.Errorf("cache-resident profile lands in phase %v (mem %v)", got, mem)
	}
}

func TestWorkingSetSweepCrossesAllPhases(t *testing.T) {
	// Sweeping the working set from L1-resident to far beyond L2 at
	// uniform reuse must traverse from phase 1 to phase 6: the bridge
	// between program locality and the paper's phase taxonomy.
	// The transition band between "fits in L2" and "streams from
	// memory" is narrow (the miss ratio rises steeply past the L2
	// capacity knee), so the sweep needs fine steps to visit the
	// intermediate phases — exactly the cliff real cache-capacity
	// sweeps show.
	m := Default()
	tab := phase.Default()
	seen := map[phase.ID]bool{}
	prevMem := -1.0
	for ws := float64(8 << 10); ws <= float64(2<<30); ws *= 1.015 {
		mem, err := m.MemPerUop(AccessProfile{AccessesPerUop: 0.35, WorkingSetBytes: ws, ReuseSkew: 0.85})
		if err != nil {
			t.Fatal(err)
		}
		if mem < prevMem-1e-12 {
			t.Fatalf("Mem/Uop not monotone in working set at %v bytes", ws)
		}
		prevMem = mem
		seen[tab.Classify(phase.Sample{MemPerUop: mem})] = true
	}
	for p := 1; p <= 6; p++ {
		if !seen[phase.ID(p)] {
			t.Errorf("working-set sweep never produced phase %d", p)
		}
	}
}

func TestReuseSkewImprovesHitRates(t *testing.T) {
	m := Default()
	base := AccessProfile{AccessesPerUop: 0.35, WorkingSetBytes: 8 << 20, ReuseSkew: 1}
	hot := base
	hot.ReuseSkew = 0.5
	bMem, err := m.MemPerUop(base)
	if err != nil {
		t.Fatal(err)
	}
	hMem, err := m.MemPerUop(hot)
	if err != nil {
		t.Fatal(err)
	}
	if !(hMem < bMem) {
		t.Errorf("skewed reuse (%v) should miss less than uniform (%v)", hMem, bMem)
	}
}

func TestSpatialLocalityMergesTransactions(t *testing.T) {
	m := Default()
	random := AccessProfile{AccessesPerUop: 0.35, WorkingSetBytes: 64 << 20, SpatialRun: 1}
	streaming := random
	streaming.SpatialRun = 8
	r, err := m.MemPerUop(random)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.MemPerUop(streaming)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-r/8) > 1e-12 {
		t.Errorf("streaming Mem/Uop %v, want exactly %v/8", s, r)
	}
}

func TestHitRatesBoundedProperty(t *testing.T) {
	m := Default()
	f := func(ws uint32, apu uint8, skewRaw uint8) bool {
		p := AccessProfile{
			AccessesPerUop:  float64(apu) / 255,
			WorkingSetBytes: float64(ws),
			ReuseSkew:       0.1 + 0.9*float64(skewRaw)/255,
		}
		l1, l2, err := m.HitRates(p)
		if err != nil {
			return false
		}
		return l1 >= 0 && l1 <= 1 && l2 >= 0 && l2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
