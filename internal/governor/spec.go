package governor

import (
	"errors"
	"fmt"
	"strings"

	"phasemon/internal/core"
	"phasemon/internal/phase"
)

// ClassifierPolicy is an optional Policy refinement for policies whose
// predictors need the run's classifier itself (not just its phase
// count) — window predictors re-classify smoothed samples. RunContext
// prefers this path when a policy provides it.
type ClassifierPolicy interface {
	Policy
	// NewPredictorFor builds a fresh predictor bound to the run's
	// classifier.
	NewPredictorFor(cls phase.Classifier) (core.Predictor, error)
}

// ErrOracleFuture reports an "oracle" policy spec reaching a context
// that has no recorded phase trace to replay. Callers that can
// precompute one should special-case the spec with FuturePhases and
// Oracle instead of PolicyFromSpec.
var ErrOracleFuture = errors.New("governor: oracle policy needs a recorded future; build it with Oracle(FuturePhases(...))")

// MonitorPrefix marks a policy spec as monitoring-only: the predictor
// runs and its accuracy is accounted, but DVFS never leaves the
// fastest setting. "mon:gpht_8_128" measures the deployed predictor's
// accuracy without actuation.
const MonitorPrefix = "mon:"

// PolicyFromSpec resolves a policy description string into a Policy.
// Recognized forms:
//
//	"", "baseline", "unmanaged"  — the full-speed baseline
//	"reactive", "lastvalue"      — last-value-driven management
//	"oracle"                     — rejected with ErrOracleFuture (the
//	                               caller must supply the future)
//	any core predictor spec      — managed by that predictor, e.g.
//	                               "gpht_8_128", "fixwindow_8",
//	                               "varwindow_128_0.005", "duration"
//	"mon:<spec>"                 — the same predictor, monitoring only
//
// This is the string surface the fleet engine and the CLIs share, so a
// sweep over policies is a slice of strings rather than a slice of
// hand-assembled Policy values.
func PolicyFromSpec(spec string) (Policy, error) {
	s, managed := splitSpec(spec)
	switch strings.ToLower(s) {
	case "", "baseline", "unmanaged":
		return Unmanaged(), nil
	case "oracle":
		return nil, ErrOracleFuture
	case "reactive", "lastvalue":
		if managed {
			return Reactive(), nil
		}
		return specPolicy{raw: "lastvalue", name: "LastValue"}, nil
	}
	// Probe-build once against the default environment: this validates
	// the spec eagerly (a sweep fails before any run starts, not after
	// the scheduler dispatched it) and fixes the report name.
	p, err := core.NewPredictorFromSpec(s, core.SpecEnv{})
	if err != nil {
		return nil, fmt.Errorf("governor: policy spec %q: %w", spec, err)
	}
	return specPolicy{raw: s, name: p.Name(), managed: managed}, nil
}

// ReadsFuture reports whether a policy spec names the oracle, whose
// decisions read phases the run has not reached yet. It is the spec
// PolicyFromSpec rejects with ErrOracleFuture, checked without building
// a predictor.
func ReadsFuture(spec string) bool {
	s, _ := splitSpec(spec)
	return strings.EqualFold(s, "oracle")
}

// splitSpec trims a policy spec and cuts its monitoring prefix,
// reporting whether the policy actuates DVFS.
func splitSpec(spec string) (s string, managed bool) {
	s = strings.TrimSpace(spec)
	if rest, ok := strings.CutPrefix(s, MonitorPrefix); ok {
		return strings.TrimSpace(rest), false
	}
	return s, true
}

// specPolicy is a Policy whose predictor is rebuilt from its spec
// string for every run, so concurrent runs never share predictor
// state.
type specPolicy struct {
	raw     string
	name    string
	managed bool
}

var _ ClassifierPolicy = specPolicy{}

func (p specPolicy) Name() string { return p.name }

func (p specPolicy) Managed() bool { return p.managed }

func (p specPolicy) NewPredictor(numPhases int) (core.Predictor, error) {
	return core.NewPredictorFromSpec(p.raw, core.SpecEnv{NumPhases: numPhases})
}

func (p specPolicy) NewPredictorFor(cls phase.Classifier) (core.Predictor, error) {
	return core.NewPredictorFromSpec(p.raw, core.SpecEnv{Classifier: cls})
}
