// Fixture: switches the exhaustive analyzer must flag.
package exhaustive

import (
	"exhaustive/agg"
	"exhaustive/dvfs"
	"exhaustive/lint"
	"exhaustive/phase"
	"exhaustive/phased"
	"exhaustive/wire"
)

func missingCases(c phase.Class) int {
	switch c { // want `switch over phase.Class is not exhaustive: missing ClassUnknown, ClassMemoryBound`
	case phase.ClassCPUBound:
		return 1
	case phase.ClassBalanced:
		return 3
	}
	return 0
}

func emptyDefault(s dvfs.Setting) int {
	switch s {
	case dvfs.SpeedStepFast:
		return 0
	default: // want `switch over dvfs.Setting has an empty default`
	}
	return -1
}

func missingFrameKinds(k wire.FrameKind) int {
	switch k { // want `switch over wire.FrameKind is not exhaustive: missing KindInvalid, KindAck, KindPrediction, KindDrain, KindError, KindRollup, KindSnapshot, KindRestore, KindBatch`
	case wire.KindHello:
		return 1
	case wire.KindSample:
		return 3
	}
	return 0
}

func missingOutcomes(o agg.Outcome) bool {
	switch o { // want `switch over agg.Outcome is not exhaustive: missing OutcomeUnscored, OutcomeShed`
	case agg.OutcomeHit, agg.OutcomeMiss:
		return true
	}
	return false
}

func missingLockModes(m lint.LockMode) bool {
	switch m { // want `switch over lint.LockMode is not exhaustive: missing LockModeWrite`
	case lint.LockModeRead:
		return true
	}
	return false
}

func emptyDefaultState(s phased.SessionState) bool {
	switch s {
	case phased.StateOpen:
		return true
	default: // want `switch over phased.SessionState has an empty default`
	}
	return false
}
