package lint

import "strings"

// simulationPackages are the deterministic simulated substrate: the
// packages whose output must be a pure function of configuration and
// seed, because every paper table is derived from them. The live
// paths (perfevent, cpufreq, pmc, the cmd/ front ends) legitimately
// read clocks and are outside this set.
var simulationPackages = []string{
	"internal/agg",
	"internal/cpusim",
	"internal/core",
	"internal/daq",
	"internal/dvfs",
	"internal/governor",
	"internal/kernelsim",
	"internal/machine",
	"internal/memhier",
	"internal/phase",
	"internal/power",
	"internal/stats",
	"internal/thermal",
	"internal/tournament",
	"internal/trace",
	"internal/wcache",
	"internal/workload",
}

// matchPaths returns a Match function accepting packages whose import
// path ends with one of the given suffixes.
func matchPaths(suffixes []string) func(string) bool {
	return func(pkgPath string) bool {
		for _, s := range suffixes {
			if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
				return true
			}
		}
		return false
	}
}

// All returns the phasemonlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		NilHubAnalyzer,
		FloatEqAnalyzer,
		ExhaustiveAnalyzer,
		GuardedAnalyzer,
		HotAllocAnalyzer,
		DeadlineAnalyzer,
		UnusedExportAnalyzer,
	}
}
