package phase

import (
	"fmt"
	"math"
)

// Class is the paper's canonical six-way phase taxonomy (Table 1):
// a closed enum over the six Mem/Uop bins, from highly CPU-bound
// (run at full speed) to highly memory-bound (large DVFS slack).
//
// Class complements ID: an ID is an open index into whatever
// classifier is plugged in (any number of phases), while a Class is
// the fixed Table 1 vocabulary used for labeling, reporting, and
// policy descriptions. Switches over Class are checked for
// exhaustiveness by phasemonlint, so adding a seventh category forces
// every consumer to decide what to do with it.
type Class uint8

// The Table 1 categories in ascending memory-boundedness.
const (
	// ClassUnknown is the zero Class: no observation yet (phase.None)
	// or an ID that does not map onto the six-way taxonomy.
	ClassUnknown Class = iota
	// ClassCPUBound is phase 1: Mem/Uop < 0.005, run at full speed.
	ClassCPUBound
	// ClassMostlyCPU is phase 2: [0.005, 0.010).
	ClassMostlyCPU
	// ClassBalanced is phase 3: [0.010, 0.015).
	ClassBalanced
	// ClassMildMemory is phase 4: [0.015, 0.020).
	ClassMildMemory
	// ClassMemoryHeavy is phase 5: [0.020, 0.030).
	ClassMemoryHeavy
	// ClassMemoryBound is phase 6: Mem/Uop > 0.030, maximum DVFS slack.
	ClassMemoryBound
)

// NumClasses is the number of real categories (ClassUnknown excluded).
const NumClasses = 6

// ClassOf maps a phase ID from a classifier with numPhases phases onto
// the canonical six-way taxonomy. For a six-phase classifier (the
// default) the mapping is the identity; for other sizes the ID's
// relative position is scaled proportionally, so e.g. the middle phase
// of a three-phase classifier lands on ClassBalanced. Invalid IDs map
// to ClassUnknown.
func ClassOf(id ID, numPhases int) Class {
	if numPhases < 1 || !id.Valid(numPhases) {
		return ClassUnknown
	}
	if numPhases == NumClasses {
		return Class(id)
	}
	// Scale the ID's position in [1, numPhases] onto [1, NumClasses].
	scaled := 1 + (int(id)-1)*(NumClasses-1)/max(numPhases-1, 1)
	return Class(scaled)
}

// Valid reports whether c is one of the six real categories.
func (c Class) Valid() bool { return c >= ClassCPUBound && c <= ClassMemoryBound }

// String names the class the way the paper's prose does.
func (c Class) String() string {
	switch c {
	case ClassUnknown:
		return "unknown"
	case ClassCPUBound:
		return "cpu-bound"
	case ClassMostlyCPU:
		return "mostly-cpu"
	case ClassBalanced:
		return "balanced"
	case ClassMildMemory:
		return "mild-memory"
	case ClassMemoryHeavy:
		return "memory-heavy"
	case ClassMemoryBound:
		return "memory-bound"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// approxRelTol is the relative tolerance of ApproxEqual: wide enough
// to absorb accumulated rounding from different arithmetic orders,
// narrow enough that no two distinct Table 1 boundaries (spaced 0.005
// apart) could ever be confused.
const approxRelTol = 1e-12

// ApproxEqual reports whether two float64s are equal within a tiny
// relative tolerance. It is the repo's sanctioned replacement for ==
// on floating-point values (phasemonlint's floateq analyzer forbids
// the operator in simulation code): two Mem/Uop values that are
// semantically equal but were computed through different arithmetic
// must land in the same phase bin. NaN equals nothing, infinities
// equal themselves.
func ApproxEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //lint:floateq exact match, including infinities and zeros
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		// Unequal infinities (and infinite vs finite): the relative test
		// below would degenerate to Inf <= Inf.
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= scale*approxRelTol
}
