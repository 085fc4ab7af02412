// Package memhier models the platform's memory hierarchy — the L1 and
// L2 caches and the front-side bus behind the BUS_TRAN_MEM counter the
// paper's phase metric is built on.
//
// The phase framework itself only consumes bus transactions per uop;
// this package supplies the layer *beneath* that number: given an
// architecture-independent locality description of an execution
// interval (access rate, working set, reuse skew), it derives the L1
// and L2 hit rates and the resulting bus-transaction rate. It lets workloads be
// specified by what the program does (how much data it touches) rather
// than by the counter value directly, and closes the loop between
// working-set behavior and the Mem/Uop phases of the paper's Table 1.
//
// The hit-rate model is analytic: for a cache of capacity S serving a
// working set W accessed with reuse skew θ ∈ (0, 1], the hit
// probability is (S/W)^θ when W > S and ~1 otherwise. θ = 1 is
// uniform random access over the working set; smaller θ models the
// skewed reuse real programs exhibit (hot structures hit even when the
// working set exceeds the cache).
package memhier

import (
	"errors"
	"fmt"
	"math"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	// SizeBytes is the capacity.
	SizeBytes float64
	// LineBytes is the block size.
	LineBytes float64
}

// Config describes the hierarchy.
type Config struct {
	// L1 and L2 are the data-side cache levels.
	L1 CacheConfig
	L2 CacheConfig
	// ColdMissRate is the floor miss ratio from compulsory misses and
	// conflict noise, applied per level.
	ColdMissRate float64
}

// DefaultConfig returns a Pentium-M (Banias) class hierarchy: 32 KB
// L1D, 1 MB L2 and 64 B lines.
func DefaultConfig() Config {
	return Config{
		L1:           CacheConfig{SizeBytes: 32 << 10, LineBytes: 64},
		L2:           CacheConfig{SizeBytes: 1 << 20, LineBytes: 64},
		ColdMissRate: 0.002,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	check := func(cc CacheConfig, name string) error {
		if !(cc.SizeBytes > 0) || !(cc.LineBytes > 0) || cc.LineBytes > cc.SizeBytes {
			return fmt.Errorf("memhier: invalid %s cache %+v", name, cc)
		}
		return nil
	}
	if err := check(c.L1, "L1"); err != nil {
		return err
	}
	if err := check(c.L2, "L2"); err != nil {
		return err
	}
	switch {
	case c.L2.SizeBytes < c.L1.SizeBytes:
		return errors.New("memhier: L2 smaller than L1")
	case c.ColdMissRate < 0 || c.ColdMissRate >= 1:
		return fmt.Errorf("memhier: cold miss rate %v outside [0,1)", c.ColdMissRate)
	}
	return nil
}

// AccessProfile describes an interval's memory behavior in program
// terms.
type AccessProfile struct {
	// AccessesPerUop is data-memory references per retired uop
	// (loads + stores; typically ~0.3-0.4).
	AccessesPerUop float64
	// WorkingSetBytes is the data footprint the interval cycles
	// through.
	WorkingSetBytes float64
	// ReuseSkew is θ: 1 = uniform access over the working set, lower
	// values = hotter subsets. Zero selects 1.
	ReuseSkew float64
	// SpatialRun is the average number of sequential accesses that
	// land on one cache line before moving on (spatial locality);
	// zero selects 1 (random single-word strides).
	SpatialRun float64
}

func (p AccessProfile) normalized() AccessProfile {
	if p.ReuseSkew == 0 {
		p.ReuseSkew = 1
	}
	if p.SpatialRun == 0 {
		p.SpatialRun = 1
	}
	return p
}

// Validate checks the profile.
func (p AccessProfile) Validate() error {
	switch {
	case !(p.AccessesPerUop >= 0) || math.IsInf(p.AccessesPerUop, 0):
		return fmt.Errorf("memhier: accesses/uop %v invalid", p.AccessesPerUop)
	case !(p.WorkingSetBytes >= 0) || math.IsInf(p.WorkingSetBytes, 0):
		return fmt.Errorf("memhier: working set %v invalid", p.WorkingSetBytes)
	case p.ReuseSkew < 0 || p.ReuseSkew > 1:
		return fmt.Errorf("memhier: reuse skew %v outside [0,1]", p.ReuseSkew)
	case p.SpatialRun < 0:
		return fmt.Errorf("memhier: spatial run %v negative", p.SpatialRun)
	}
	return nil
}

// Model derives counter-level behavior from locality profiles.
type Model struct {
	cfg Config
}

// New builds a model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg}, nil
}

// Default returns a model with DefaultConfig.
func Default() *Model {
	m, err := New(DefaultConfig())
	if err != nil {
		panic(err)
	}
	return m
}

// hitRate is the analytic per-level hit probability.
func hitRate(sizeBytes, wsBytes, skew, coldMiss float64) float64 {
	if wsBytes <= sizeBytes {
		return 1 - coldMiss
	}
	h := math.Pow(sizeBytes/wsBytes, skew)
	if h > 1-coldMiss {
		h = 1 - coldMiss
	}
	return h
}

// HitRates returns the L1 hit rate and the local (given-L1-miss) L2
// hit rate for a profile.
func (m *Model) HitRates(p AccessProfile) (l1, l2 float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	p = p.normalized()
	h1 := hitRate(m.cfg.L1.SizeBytes, p.WorkingSetBytes, p.ReuseSkew, m.cfg.ColdMissRate)
	// Global L2 hit rate (fraction of all accesses satisfied at or
	// above L2), then condition on having missed L1. True compulsory
	// misses to memory are an order of magnitude rarer than the L1's
	// cold/conflict floor: most L1 floor misses still hit L2.
	g2 := hitRate(m.cfg.L2.SizeBytes, p.WorkingSetBytes, p.ReuseSkew, m.cfg.ColdMissRate/10)
	if g2 < h1 {
		g2 = h1
	}
	if h1 >= 1 {
		return 1, 1, nil
	}
	return h1, (g2 - h1) / (1 - h1), nil
}

// MemPerUop derives the paper's phase metric from a locality profile:
// bus transactions (L2 line misses) per retired uop. Spatial locality
// merges consecutive same-line accesses into one transaction.
func (m *Model) MemPerUop(p AccessProfile) (float64, error) {
	l1, l2, err := m.HitRates(p)
	if err != nil {
		return 0, err
	}
	p = p.normalized()
	missPerAccess := (1 - l1) * (1 - l2)
	return p.AccessesPerUop * missPerAccess / p.SpatialRun, nil
}
