package fleet

import (
	"hash/fnv"

	"phasemon/internal/governor"
)

// Spec describes one governed run: which workload to generate, which
// policy to manage it with, and the run geometry. Specs are plain
// comparable data — a sweep is a []Spec, and the engine owns turning
// each into a generator, predictor, and machine.
type Spec struct {
	// Workload names a profile from the workload registry
	// ("applu_in", "gzip_graphic", ...). Required.
	Workload string
	// Policy is a governor.PolicyFromSpec string: "baseline",
	// "reactive", a predictor spec like "gpht_8_128", a monitoring-only
	// "mon:<spec>", or "oracle" (the engine precomputes the future).
	Policy string
	// Phases optionally overrides the classifier with comma-separated
	// Mem/Uop boundaries (phase.ParseTable grammar). Empty selects the
	// paper's Table 1.
	Phases string
	// Intervals bounds the run length; 0 runs the profile to
	// completion.
	Intervals int
	// Seed seeds the workload generator. 0 derives a per-workload seed
	// from the engine's BaseSeed, so identical workloads see identical
	// streams under every policy — the property like-for-like policy
	// comparisons rest on.
	Seed int64
	// Bound, when positive, replaces the identity translation with a
	// conservative one derived to keep worst-case slowdown under this
	// fraction (Section 6.3's 5% bound is 0.05).
	Bound float64
	// GranularityUops is the sampling interval; 0 selects the paper's
	// 100M uops.
	GranularityUops uint64
}

// EffectiveSeed resolves the seed a run will actually use: the spec's
// own seed when set, otherwise a stable mix of base and the workload
// name. Mixing over the workload alone (never the policy) keeps every
// policy on the same input stream, and the value is independent of
// worker count, submission order, and scheduling.
func (s Spec) EffectiveSeed(base int64) int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	if base == 0 {
		base = 1
	}
	h := fnv.New64a()
	h.Write([]byte(s.Workload))
	mixed := int64(h.Sum64()&0x7fffffffffffffff) ^ base
	if mixed == 0 {
		mixed = 1
	}
	return mixed
}

// Result is one spec's outcome.
type Result struct {
	// Spec is the resolved spec (defaults and derived seed filled in).
	Spec Spec
	// Res is the governed run's result when the run succeeded.
	Res *governor.Result
	// Err is set when the run failed or the sweep was canceled before
	// or during it.
	Err error
}
