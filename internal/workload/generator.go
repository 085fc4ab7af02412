// Package workload synthesizes the execution-interval streams the
// framework monitors: per-interval (Mem/Uop, core UPC) demands.
//
// The paper evaluates on SPEC CPU2000. Those binaries and inputs (and
// the Pentium-M they ran on) are not available here, so each of the
// paper's 33 benchmark/input pairs is replaced by a deterministic
// synthetic generator calibrated to the benchmark's coordinates in the
// paper's Figure 3 — average memory-boundedness (power-savings
// potential) and sample variation — and to its phase-pattern class:
// steady, slowly drifting, periodically bursting, or rapidly cycling
// through repetitive motifs. The predictor and the DVFS governor only
// ever observe per-interval counter values, so matching these
// statistics and pattern shapes preserves the behavior the paper
// measures. The package also defines the grid of the paper's IPCxMEM
// suite (Section 4), whose (UPC, Mem/Uop) coordinates cpusim.GridWork
// realizes.
package workload

import (
	"math/rand"

	"phasemon/internal/cpusim"
)

// Generator yields successive execution intervals of a program. A
// generator is deterministic: after Reset it reproduces the same
// sequence.
type Generator interface {
	// Name identifies the workload.
	Name() string
	// Next returns the next interval's demand, or ok=false when the
	// program has run to completion.
	Next() (w cpusim.Work, ok bool)
	// Reset restarts the sequence from the beginning.
	Reset()
}

// series produces one Mem/Uop value per call. Implementations are
// stateful; they are rebuilt from the profile's recipe on Reset.
type series func() float64

// recipe constructs a fresh Mem/Uop series from a seeded random
// source.
type recipe func(rng *rand.Rand) series

// clampMem keeps generated Mem/Uop values physical.
func clampMem(m float64) float64 {
	if m < 0 {
		return 0
	}
	if m > 0.25 {
		return 0.25
	}
	return m
}

// The recipes below round every product before adding it (float64(a*b)
// + c), so no architecture fuses the pair into one multiply-add and the
// generated values do not depend on whether it can (make fma-check).

// steady emits a constant level with Gaussian jitter.
func steady(level, jitter float64) recipe {
	return func(rng *rand.Rand) series {
		return func() float64 {
			return clampMem(level + float64(rng.NormFloat64()*jitter))
		}
	}
}

// cycle repeats a fixed motif of Mem/Uop levels, each with Gaussian
// jitter, and — with probability disturb per interval — replaces the
// scheduled value with a random element of the motif, modeling the
// data-dependent irregularities that keep real pattern predictors
// below 100%.
func cycle(motif []float64, jitter, disturb float64) recipe {
	cp := make([]float64, len(motif))
	copy(cp, motif)
	return func(rng *rand.Rand) series {
		i := 0
		return func() float64 {
			v := cp[i%len(cp)]
			i++
			if disturb > 0 && rng.Float64() < disturb {
				v = cp[rng.Intn(len(cp))]
			}
			return clampMem(v + float64(rng.NormFloat64()*jitter))
		}
	}
}

// bursts emits a base level with aperiodic excursions: gaps between
// bursts and burst lengths are geometrically distributed, so the
// excursions carry no learnable pattern.
func bursts(base, burst float64, meanGap, meanLen, jitter float64) recipe {
	return func(rng *rand.Rand) series {
		inBurst := false
		left := 0
		draw := func(mean float64) int {
			if mean < 1 {
				mean = 1
			}
			// Geometric with the given mean, at least 1.
			return 1 + int(float64(rng.ExpFloat64()*(mean-1))+0.5)
		}
		return func() float64 {
			if left == 0 {
				inBurst = !inBurst
				if inBurst {
					left = draw(meanLen)
				} else {
					left = draw(meanGap)
				}
			}
			left--
			v := base
			if inBurst {
				v = burst
			}
			return clampMem(v + float64(rng.NormFloat64()*jitter))
		}
	}
}

// burstsFixed is like bursts but with a deterministic burst length:
// the burst *interior and end* become learnable pattern (a fixed-size
// excursion) while the burst arrival stays memoryless. Real codes with
// fixed-size periodic work items (e.g. a compiler's per-function
// optimization passes) behave this way.
func burstsFixed(base, burst float64, meanGap float64, burstLen int, jitter float64) recipe {
	if burstLen < 1 {
		burstLen = 1
	}
	return func(rng *rand.Rand) series {
		inBurst := false
		left := 0
		return func() float64 {
			if left == 0 {
				inBurst = !inBurst
				if inBurst {
					left = burstLen
				} else {
					g := meanGap
					if g < 1 {
						g = 1
					}
					left = 1 + int(float64(rng.ExpFloat64()*(g-1))+0.5)
				}
			}
			left--
			v := base
			if inBurst {
				v = burst
			}
			return clampMem(v + float64(rng.NormFloat64()*jitter))
		}
	}
}

// square alternates between two levels with the given dwell lengths —
// slow program-section alternation (e.g. apsi's solver sweeps).
func square(a, b float64, dwellA, dwellB int, jitter float64) recipe {
	return func(rng *rand.Rand) series {
		i := 0
		period := dwellA + dwellB
		return func() float64 {
			v := a
			if i%period >= dwellA {
				v = b
			}
			i++
			return clampMem(v + float64(rng.NormFloat64()*jitter))
		}
	}
}

// pieces concatenates recipes, running each for the given number of
// intervals and cycling back to the first — multi-section programs.
func pieces(parts ...piece) recipe {
	return func(rng *rand.Rand) series {
		idx, left := 0, 0
		var cur series
		return func() float64 {
			for left == 0 {
				p := parts[idx%len(parts)]
				idx++
				left = p.n
				cur = p.r(rng)
			}
			left--
			return cur()
		}
	}
}

// piece is one section of a multi-part recipe.
type piece struct {
	n int
	r recipe
}

// profileGen adapts a Profile into a Generator.
type profileGen struct {
	p       *Profile
	params  Params
	total   int
	rng     *rand.Rand
	mem     series
	emitted int
}

// Params configures generator instantiation.
type Params struct {
	// GranularityUops is the uop length of each emitted interval; it
	// normally equals the monitoring framework's sampling granularity
	// (100M in the paper). Zero selects 100e6.
	GranularityUops float64
	// Seed drives all stochastic elements; the same seed reproduces
	// the same program.
	Seed int64
	// Intervals overrides the profile's default run length when > 0.
	Intervals int
}

func (p Params) withDefaults() Params {
	if p.GranularityUops <= 0 {
		p.GranularityUops = 100e6
	}
	return p
}

// Name implements Generator.
func (g *profileGen) Name() string { return g.p.Name }

// Next implements Generator.
func (g *profileGen) Next() (cpusim.Work, bool) {
	if g.emitted >= g.total {
		return cpusim.Work{}, false
	}
	g.emitted++
	mem := g.mem()
	coreUPC := g.p.coreUPC(mem)
	// Small multiplicative jitter keeps UPC from being unrealistically
	// flat without perturbing the phase metric.
	coreUPC *= 1 + float64(g.rng.NormFloat64()*0.02)
	if coreUPC < 0.05 {
		coreUPC = 0.05
	}
	return cpusim.Work{
		Uops:         g.params.GranularityUops,
		Instructions: g.params.GranularityUops / g.p.UopsPerInstr,
		MemPerUop:    mem,
		CoreUPC:      coreUPC,
		MLP:          g.p.MLP,
	}, true
}

// Reset implements Generator.
func (g *profileGen) Reset() {
	g.rng = rand.New(rand.NewSource(g.params.Seed))
	g.mem = g.p.recipe(g.rng)
	g.emitted = 0
}

// coreUPC derives the benchmark's compute-side UPC for an interval
// with the given memory intensity. The dependence is gentle: in
// memory-bound regions the core still issues quickly between stalls —
// the stalls themselves, not reduced ILP, dominate the interval (which
// is what gives those regions their DVFS slack).
func (p *Profile) coreUPC(mem float64) float64 {
	u := p.CoreUPCMax * (1 - 2*mem)
	if u < 0.25 {
		u = 0.25
	}
	return u
}

// Generator instantiates the profile as a deterministic workload.
func (p *Profile) Generator(params Params) Generator {
	params = params.withDefaults()
	total := p.DefaultIntervals
	if params.Intervals > 0 {
		total = params.Intervals
	}
	g := &profileGen{p: p, params: params, total: total}
	g.Reset()
	return g
}

// Collect drains up to max intervals from a generator (all of them
// when max <= 0) and returns the work items. It is a convenience for
// evaluations that need the whole trace up front.
func Collect(g Generator, max int) []cpusim.Work {
	var out []cpusim.Work
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		w, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, w)
	}
}

// MemSeries extracts the Mem/Uop values of a work slice.
func MemSeries(ws []cpusim.Work) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.MemPerUop
	}
	return out
}

// GridPoint is one IPCxMEM suite configuration.
type GridPoint struct {
	UPC       float64
	MemPerUop float64
}

// SPECBoundary returns the maximum UPC observed at a given Mem/Uop
// rate across applications — the empirical boundary curve of the
// paper's Figure 6. High memory traffic slows dependent execution, so
// achievable UPC falls hyperbolically with memory intensity. The
// curve reflects the memory-level parallelism real code extracts,
// which is why it sits above the serialized-miss analytic bound.
func SPECBoundary(memPerUop float64) float64 {
	if memPerUop < 0 {
		memPerUop = 0
	}
	// float64 rounds the product before the add, so no architecture
	// fuses the two.
	return 1 / (1/2.0 + float64(35*memPerUop))
}

// IPCxMEMGrid enumerates the suite configurations covering the
// exploration space: the cross product of UPC levels and Mem/Uop
// levels, filtered to the achievable region under the SPEC boundary
// (high memory traffic caps achievable UPC). It mirrors the ~50-point
// grid of the paper's Figure 6.
func IPCxMEMGrid() []GridPoint {
	upcs := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9}
	mems := []float64{0, 0.0025, 0.0075, 0.0125, 0.0175, 0.0225, 0.0275, 0.0325, 0.0375, 0.0425, 0.0475}
	var out []GridPoint
	for _, m := range mems {
		bound := SPECBoundary(m)
		for _, u := range upcs {
			if u <= bound {
				out = append(out, GridPoint{UPC: u, MemPerUop: m})
			}
		}
	}
	return out
}

// Figure7Points returns the eleven grid configurations whose
// frequency behavior the paper's Figure 7 plots.
func Figure7Points() []GridPoint {
	return []GridPoint{
		{1.9, 0.0000},
		{1.3, 0.0075},
		{0.9, 0.0125},
		{0.9, 0.0075},
		{0.9, 0.0000},
		{0.5, 0.0225},
		{0.5, 0.0025},
		{0.5, 0.0000},
		{0.1, 0.0475},
		{0.1, 0.0325},
		{0.1, 0.0000},
	}
}
