// Fixture: switch forms the exhaustive analyzer must accept.
package exhaustiveclean

import (
	"errors"

	"exhaustive/agg"
	"exhaustive/dvfs"
	"exhaustive/lint"
	"exhaustive/phase"
	"exhaustive/phased"
	"exhaustive/wire"
)

// full covers every declared constant; no default needed.
func full(c phase.Class) int {
	switch c {
	case phase.ClassUnknown:
		return -1
	case phase.ClassCPUBound:
		return 1
	case phase.ClassBalanced:
		return 3
	case phase.ClassMemoryBound:
		return 6
	}
	return 0
}

// partialWithRejectingDefault handles unknowns explicitly.
func partialWithRejectingDefault(s dvfs.Setting) (int, error) {
	switch s {
	case dvfs.SpeedStepFast:
		return 0, nil
	default:
		return 0, errors.New("unhandled setting")
	}
}

// fullFrameKind covers every wire frame kind; no default needed.
func fullFrameKind(k wire.FrameKind) string {
	switch k {
	case wire.KindInvalid:
		return "invalid"
	case wire.KindHello:
		return "hello"
	case wire.KindAck:
		return "ack"
	case wire.KindSample:
		return "sample"
	case wire.KindPrediction:
		return "prediction"
	case wire.KindDrain:
		return "drain"
	case wire.KindError:
		return "error"
	case wire.KindRollup:
		return "rollup"
	case wire.KindSnapshot:
		return "snapshot"
	case wire.KindRestore:
		return "restore"
	case wire.KindBatch:
		return "batch"
	}
	return "unknown"
}

// fullOutcome covers every rollup outcome; no default needed.
func fullOutcome(o agg.Outcome) string {
	switch o {
	case agg.OutcomeUnscored:
		return "unscored"
	case agg.OutcomeHit:
		return "hit"
	case agg.OutcomeMiss:
		return "miss"
	case agg.OutcomeShed:
		return "shed"
	}
	return "unknown"
}

// partialOutcomeWithDefault rejects unknown outcomes explicitly.
func partialOutcomeWithDefault(o agg.Outcome) (bool, error) {
	switch o {
	case agg.OutcomeHit:
		return true, nil
	default:
		return false, errors.New("not a hit")
	}
}

// partialStateWithDefault rejects unknown session states explicitly.
func partialStateWithDefault(s phased.SessionState) (bool, error) {
	switch s {
	case phased.StateOpen, phased.StateDraining:
		return true, nil
	default:
		return false, errors.New("session not serving")
	}
}

// fullLockMode covers every lock mode; no default needed.
func fullLockMode(m lint.LockMode) string {
	switch m {
	case lint.LockModeRead:
		return "read"
	case lint.LockModeWrite:
		return "write"
	}
	return "unknown"
}

// otherEnum is not in the enforced set; partial coverage is fine.
type weekday int

const (
	monday weekday = iota
	tuesday
)

func otherEnum(d weekday) bool {
	switch d {
	case monday:
		return true
	}
	return false
}

// dynamicCase makes coverage undecidable; the analyzer stays silent.
func dynamicCase(c, threshold phase.Class) bool {
	switch c {
	case threshold:
		return true
	}
	return false
}
