package phase

import (
	"math"
	"testing"
)

func TestClassOfIdentityForSixPhases(t *testing.T) {
	for id := ID(1); id <= 6; id++ {
		got := ClassOf(id, 6)
		if got != Class(id) {
			t.Errorf("ClassOf(%d, 6) = %v, want %v", id, got, Class(id))
		}
		if !got.Valid() {
			t.Errorf("ClassOf(%d, 6) = %v not Valid", id, got)
		}
		if ID(got) != id {
			t.Errorf("ClassOf(%d, 6) = %v, want class %d", id, got, id)
		}
	}
}

func TestClassOfScalesOtherSizes(t *testing.T) {
	cases := []struct {
		id        ID
		numPhases int
		want      Class
	}{
		// A three-phase classifier spreads onto the taxonomy's ends and middle.
		{1, 3, ClassCPUBound},
		{2, 3, ClassBalanced},
		{3, 3, ClassMemoryBound},
		// A single-phase classifier is maximally CPU-bound by position.
		{1, 1, ClassCPUBound},
		// Extremes always land on the extreme classes.
		{1, 12, ClassCPUBound},
		{12, 12, ClassMemoryBound},
	}
	for _, c := range cases {
		if got := ClassOf(c.id, c.numPhases); got != c.want {
			t.Errorf("ClassOf(%d, %d) = %v, want %v", c.id, c.numPhases, got, c.want)
		}
	}
}

func TestClassOfInvalidIDs(t *testing.T) {
	for _, c := range []struct {
		id        ID
		numPhases int
	}{
		{None, 6}, {7, 6}, {-1, 6}, {1, 0},
	} {
		if got := ClassOf(c.id, c.numPhases); got != ClassUnknown {
			t.Errorf("ClassOf(%d, %d) = %v, want ClassUnknown", c.id, c.numPhases, got)
		}
	}
	if ClassUnknown.Valid() {
		t.Error("ClassUnknown.Valid() = true")
	}
}

func TestClassStringNamesEveryCategory(t *testing.T) {
	seen := make(map[string]bool)
	for c := ClassUnknown; c <= ClassMemoryBound; c++ {
		s := c.String()
		if s == "" || seen[s] {
			t.Errorf("Class(%d).String() = %q (empty or duplicate)", c, s)
		}
		seen[s] = true
	}
	if got := Class(200).String(); got != "class(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0.005, 0.005, true},
		{0, 0, true},
		{0, math.Copysign(0, -1), true},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.NaN(), math.NaN(), false},
		{math.NaN(), 1, false},
		// Accumulated rounding from a different arithmetic order.
		{0.1 + 0.2, 0.3, true},
		// Distinct Table 1 boundaries must never be confused.
		{0.005, 0.010, false},
		{0.025, 0.030, false},
		{1, 1 + 1e-9, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b); got != c.want {
			t.Errorf("ApproxEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := ApproxEqual(c.b, c.a); got != c.want {
			t.Errorf("ApproxEqual(%v, %v) = %v, want %v (asymmetric)", c.b, c.a, got, c.want)
		}
	}
}
