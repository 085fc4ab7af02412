// Package phase defines application execution phases and the
// classifiers that map runtime observations onto them.
//
// A "phase" in this framework is a coarse-grained (millions of
// instructions) region of execution with similar power/performance
// characteristics. Following Isci, Contreras and Martonosi (MICRO
// 2006), the default phase definition bins the DVFS-invariant metric
// Mem/Uop — memory bus transactions per retired micro-op — into six
// categories (the paper's Table 1): phase 1 is highly CPU-bound and
// should run at full speed, phase 6 is highly memory-bound and can be
// slowed down substantially to exploit available slack.
//
// The framework is definition-agnostic: any Classifier can be plugged
// into the monitoring, prediction, and management layers. The package
// also provides a UPC-based classifier used only to demonstrate why
// frequency-dependent metrics make unreliable phase definitions (the
// paper's Section 4).
package phase

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ID identifies a phase category. Valid phases are numbered from 1 to
// the classifier's NumPhases; None (0) marks the absence of a phase,
// e.g. before the first sampling interval completes.
type ID int

// None is the zero ID, denoting "no phase observed yet".
const None ID = 0

// Valid reports whether id denotes an actual phase under a classifier
// with n phases.
func (id ID) Valid(n int) bool { return id >= 1 && int(id) <= n }

// String renders the ID as the paper prints it ("P3"), or "P?" for None.
func (id ID) String() string {
	if id == None {
		return "P?"
	}
	return fmt.Sprintf("P%d", int(id))
}

// Sample is one interval's observation, as produced by reading the
// performance counters at a sampling boundary.
type Sample struct {
	// MemPerUop is memory bus transactions divided by retired
	// micro-ops over the interval. It is the paper's phase-defining
	// metric because it is invariant under DVFS.
	MemPerUop float64
	// UPC is retired micro-ops per cycle over the interval. It is
	// informational for Mem/Uop classification but is the defining
	// metric for the (deliberately fragile) UPC classifier.
	UPC float64
}

// FromCounters turns one interval's counter deltas into its Sample:
// Mem/Uop is memTx/uops and UPC is uops/cycles, each 0 when its
// divisor is. Every consumer of raw counters (the simulated PMI
// handler, the phased server) converts through it, so a streamed
// interval and a simulated one classify from bit-identical samples.
//
//lint:hotpath
func FromCounters(uops, memTx, cycles uint64) Sample {
	var s Sample
	if uops != 0 {
		s.MemPerUop = float64(memTx) / float64(uops)
	}
	if cycles != 0 {
		s.UPC = float64(uops) / float64(cycles)
	}
	return s
}

// Classifier maps an observed Sample to a phase ID.
type Classifier interface {
	// Classify returns the phase for the observation. The result is
	// always in [1, NumPhases()].
	Classify(s Sample) ID
	// NumPhases returns the number of phase categories.
	NumPhases() int
	// Name identifies the classifier in logs and reports.
	Name() string
}

// Table is a threshold classifier over Mem/Uop: ascending boundaries
// b[0] < b[1] < ... < b[k-1] define k+1 phases, where phase i covers
// [b[i-2], b[i-1]) (with open ends at the extremes). The paper's
// Table 1 instance has boundaries 0.005, 0.010, 0.015, 0.020, 0.030.
type Table struct {
	name   string
	bounds []float64
}

var _ Classifier = (*Table)(nil)

// ErrBadBounds reports an invalid boundary list passed to NewTable.
var ErrBadBounds = errors.New("phase: boundaries must be finite, positive, and strictly ascending")

// NewTable builds a Mem/Uop threshold classifier from ascending
// boundaries. len(bounds) must be at least 1; the classifier then has
// len(bounds)+1 phases.
func NewTable(name string, bounds []float64) (*Table, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("%w: need at least one boundary", ErrBadBounds)
	}
	prev := math.Inf(-1)
	for _, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
			return nil, fmt.Errorf("%w: boundary %v", ErrBadBounds, b)
		}
		if b <= prev {
			return nil, fmt.Errorf("%w: boundary %v follows %v", ErrBadBounds, b, prev)
		}
		prev = b
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &Table{name: name, bounds: cp}, nil
}

// MustNewTable is NewTable that panics on invalid boundaries. It is
// intended for package-level defaults and tests.
func MustNewTable(name string, bounds []float64) *Table {
	t, err := NewTable(name, bounds)
	if err != nil {
		panic(err)
	}
	return t
}

// Default returns the paper's Table 1 classifier: six phases over
// Mem/Uop with boundaries 0.005, 0.010, 0.015, 0.020 and 0.030.
func Default() *Table {
	return MustNewTable("memuop6", []float64{0.005, 0.010, 0.015, 0.020, 0.030})
}

// Name implements Classifier.
func (t *Table) Name() string { return t.name }

// NumPhases implements Classifier.
func (t *Table) NumPhases() int { return len(t.bounds) + 1 }

// Classify implements Classifier. Negative or NaN Mem/Uop observations
// (which can only arise from counter glitches) are clamped into
// phase 1.
func (t *Table) Classify(s Sample) ID {
	m := s.MemPerUop
	if math.IsNaN(m) || m < 0 {
		return 1
	}
	// sort.SearchFloat64s returns the number of boundaries <= m when m
	// equals a boundary; ranges are [lo, hi), so a sample on a boundary
	// (within tolerance — the sample may have gone through different
	// arithmetic than the table) belongs to the higher phase.
	i := sort.SearchFloat64s(t.bounds, m)
	if i < len(t.bounds) && ApproxEqual(t.bounds[i], m) {
		i++
	}
	return ID(i + 1)
}

// Range returns the half-open Mem/Uop interval [lo, hi) covered by the
// given phase. The first phase has lo = 0 and the last hi = +Inf.
func (t *Table) Range(id ID) (lo, hi float64) {
	if !id.Valid(t.NumPhases()) {
		return math.NaN(), math.NaN()
	}
	i := int(id) - 1
	lo = 0
	if i > 0 {
		lo = t.bounds[i-1]
	}
	hi = math.Inf(1)
	if i < len(t.bounds) {
		hi = t.bounds[i]
	}
	return lo, hi
}

// Bounds returns a copy of the boundary list.
func (t *Table) Bounds() []float64 {
	cp := make([]float64, len(t.bounds))
	copy(cp, t.bounds)
	return cp
}

// Midpoint returns a representative Mem/Uop value for the phase: the
// middle of its range, or for the unbounded top phase, 4/3 of its
// lower boundary. It is used when a model needs a single number per
// phase (e.g. deriving conservative phase definitions).
func (t *Table) Midpoint(id ID) float64 {
	lo, hi := t.Range(id)
	if math.IsNaN(lo) {
		return math.NaN()
	}
	if math.IsInf(hi, 1) {
		return lo * 4 / 3
	}
	return (lo + hi) / 2
}

// Describe renders the classifier as the paper's Table 1, one line per
// phase.
func (t *Table) Describe() string {
	var b strings.Builder
	n := t.NumPhases()
	for i := 1; i <= n; i++ {
		lo, hi := t.Range(ID(i))
		var rangeStr string
		switch {
		case i == 1:
			rangeStr = fmt.Sprintf("< %.3f", hi)
		case math.IsInf(hi, 1):
			rangeStr = fmt.Sprintf("> %.3f", lo)
		default:
			rangeStr = fmt.Sprintf("[%.3f,%.3f)", lo, hi)
		}
		note := ""
		if i == 1 {
			note = " (highly cpu-bound)"
		}
		if i == n {
			note = " (highly memory-bound)"
		}
		fmt.Fprintf(&b, "%-15s %d%s\n", rangeStr, i, note)
	}
	return b.String()
}

// UPCTable classifies by UPC instead of Mem/Uop. High UPC means
// CPU-bound (phase 1); low UPC means memory-bound (highest phase).
// This classifier exists to reproduce the paper's Section 4 pitfall:
// because UPC changes with the DVFS setting, UPC-defined phases are
// altered by the very management actions that respond to them.
type UPCTable struct {
	name string
	// bounds are ascending UPC thresholds; a sample with UPC below
	// bounds[0] lands in the highest-numbered (memory-bound) phase.
	bounds []float64
}

var _ Classifier = (*UPCTable)(nil)

// NewUPCTable builds a UPC threshold classifier from ascending UPC
// boundaries; it has len(bounds)+1 phases, numbered so that higher UPC
// maps to a lower phase number (more CPU-bound).
func NewUPCTable(name string, bounds []float64) (*UPCTable, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("%w: need at least one boundary", ErrBadBounds)
	}
	prev := math.Inf(-1)
	for _, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
			return nil, fmt.Errorf("%w: boundary %v", ErrBadBounds, b)
		}
		if b <= prev {
			return nil, fmt.Errorf("%w: boundary %v follows %v", ErrBadBounds, b, prev)
		}
		prev = b
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &UPCTable{name: name, bounds: cp}, nil
}

// DefaultUPC returns a six-phase UPC classifier with boundaries chosen
// to split the SPEC-observed UPC range (roughly 0.1 to 2.0) evenly.
func DefaultUPC() *UPCTable {
	t, err := NewUPCTable("upc6", []float64{0.15, 0.3, 0.5, 0.8, 1.2})
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Classifier.
func (t *UPCTable) Name() string { return t.name }

// NumPhases implements Classifier.
func (t *UPCTable) NumPhases() int { return len(t.bounds) + 1 }

// Classify implements Classifier.
func (t *UPCTable) Classify(s Sample) ID {
	u := s.UPC
	if math.IsNaN(u) || u < 0 {
		u = 0
	}
	i := sort.SearchFloat64s(t.bounds, u)
	if i < len(t.bounds) && ApproxEqual(t.bounds[i], u) {
		i++
	}
	// i boundaries are <= u; invert so high UPC -> phase 1.
	return ID(t.NumPhases() - i)
}

// ParseTable builds a Mem/Uop classifier from a comma-separated
// boundary list (e.g. "0.005,0.010,0.015,0.020,0.030" reproduces the
// paper's Table 1) — the command-line form of a custom phase
// definition.
func ParseTable(name, spec string) (*Table, error) {
	fields := strings.Split(spec, ",")
	bounds := make([]float64, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("phase: parsing boundary %q: %w", f, err)
		}
		bounds = append(bounds, v)
	}
	return NewTable(name, bounds)
}
