// Package dvfs models dynamic voltage and frequency scaling as
// provided by Intel SpeedStep on the paper's Pentium-M platform.
//
// A Ladder is an ordered set of operating points (frequency, voltage
// pairs), fastest first. A Controller actuates ladder settings with a
// realistic transition latency. A Translation is the lookup table —
// defined once at initialization, reconfigurable afterwards — that the
// PMI handler uses to turn a predicted phase into an operating point
// (the paper's Table 2).
package dvfs

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"phasemon/internal/phase"
)

// OperatingPoint is one DVFS setting: a core frequency and the supply
// voltage required to sustain it.
type OperatingPoint struct {
	FrequencyHz float64
	VoltageV    float64
}

// String renders the point the way the paper's Table 2 does.
func (p OperatingPoint) String() string {
	return fmt.Sprintf("(%4.0f MHz, %4.0f mV)", p.FrequencyHz/1e6, p.VoltageV*1e3)
}

// Setting indexes an operating point within a Ladder; 0 is the fastest
// point.
type Setting int

// Named settings for the Pentium-M ladder of the paper's Table 2,
// fastest first. They index PentiumM(); ladders of other sizes use
// plain integer settings. Switches over Setting are checked for
// exhaustiveness by phasemonlint, so a seventh operating point forces
// every consumer to decide how to handle it.
const (
	SpeedStep1500 Setting = iota // 1500 MHz, 1.484 V
	SpeedStep1400                // 1400 MHz, 1.452 V
	SpeedStep1200                // 1200 MHz, 1.356 V
	SpeedStep1000                // 1000 MHz, 1.228 V
	SpeedStep800                 //  800 MHz, 1.116 V
	SpeedStep600                 //  600 MHz, 0.956 V
)

// Ladder is an immutable, ordered collection of operating points,
// fastest (highest frequency) first.
type Ladder struct {
	name   string
	points []OperatingPoint
}

// ErrBadLadder reports an invalid operating point list.
var ErrBadLadder = errors.New("dvfs: operating points must be positive, strictly descending in frequency, and non-increasing in voltage")

// NewLadder validates and builds a ladder. Points must be ordered by
// strictly descending frequency — duplicates (within ApproxEqual
// tolerance) are rejected, since two settings at the same frequency
// make Setting ambiguous — with positive voltages that never rise as
// frequency falls, matching how DVFS hardware scales supply voltage
// with clock speed.
func NewLadder(name string, points []OperatingPoint) (*Ladder, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadLadder)
	}
	prevF, prevV := math.Inf(1), math.Inf(1)
	for _, p := range points {
		if !(p.FrequencyHz > 0) || !(p.VoltageV > 0) ||
			math.IsInf(p.FrequencyHz, 0) || math.IsInf(p.VoltageV, 0) {
			return nil, fmt.Errorf("%w: point %v", ErrBadLadder, p)
		}
		if phase.ApproxEqual(p.FrequencyHz, prevF) {
			return nil, fmt.Errorf("%w: duplicate frequency %v", ErrBadLadder, p.FrequencyHz)
		}
		if p.FrequencyHz >= prevF {
			return nil, fmt.Errorf("%w: frequency %v not below %v", ErrBadLadder, p.FrequencyHz, prevF)
		}
		if p.VoltageV > prevV {
			return nil, fmt.Errorf("%w: voltage %v rises as frequency falls below %v", ErrBadLadder, p.VoltageV, prevF)
		}
		prevF, prevV = p.FrequencyHz, p.VoltageV
	}
	cp := make([]OperatingPoint, len(points))
	copy(cp, points)
	return &Ladder{name: name, points: cp}, nil
}

// PentiumM returns the experimental platform's ladder: the six
// SpeedStep operating points of the paper's Table 2.
func PentiumM() *Ladder {
	l, err := NewLadder("pentium-m", []OperatingPoint{
		{1500e6, 1.484},
		{1400e6, 1.452},
		{1200e6, 1.356},
		{1000e6, 1.228},
		{800e6, 1.116},
		{600e6, 0.956},
	})
	if err != nil {
		panic(err)
	}
	return l
}

// Name returns the ladder's name.
func (l *Ladder) Name() string { return l.name }

// Len returns the number of operating points.
func (l *Ladder) Len() int { return len(l.points) }

// Point returns the operating point at the given setting. It panics if
// the setting is out of range, as that is always a programming error
// in the caller.
func (l *Ladder) Point(s Setting) OperatingPoint {
	if !l.ValidSetting(s) {
		panic(fmt.Sprintf("dvfs: setting %d out of range [0,%d)", s, l.Len()))
	}
	return l.points[s]
}

// ValidSetting reports whether s indexes a point in the ladder.
func (l *Ladder) ValidSetting(s Setting) bool { return s >= 0 && int(s) < len(l.points) }

// Fastest returns the setting of the highest-frequency point (always 0).
func (l *Ladder) Fastest() Setting { return 0 }

// Slowest returns the setting of the lowest-frequency point.
func (l *Ladder) Slowest() Setting { return Setting(len(l.points) - 1) }

// Frequencies returns the ladder's frequencies in Hz, fastest first.
func (l *Ladder) Frequencies() []float64 {
	out := make([]float64, len(l.points))
	for i, p := range l.points {
		out[i] = p.FrequencyHz
	}
	return out
}

// ClassSetting maps a canonical six-way phase class (Table 1) to its
// Table 2 operating point on the Pentium-M ladder: the more
// memory-bound the class, the slower the point. ClassUnknown gets the
// fastest setting — when the system knows nothing it must not hurt
// performance. The switch is exhaustive by construction (phasemonlint
// enforces it), so a new class cannot silently inherit a speed.
func ClassSetting(c phase.Class) Setting {
	switch c {
	case phase.ClassUnknown:
		return SpeedStep1500
	case phase.ClassCPUBound:
		return SpeedStep1500
	case phase.ClassMostlyCPU:
		return SpeedStep1400
	case phase.ClassBalanced:
		return SpeedStep1200
	case phase.ClassMildMemory:
		return SpeedStep1000
	case phase.ClassMemoryHeavy:
		return SpeedStep800
	case phase.ClassMemoryBound:
		return SpeedStep600
	}
	return SpeedStep1500
}

// Translation maps predicted phases to ladder settings; it is the
// paper's phase -> DVFS lookup table, defined at LKM initialization
// and reconfigurable for alternative management schemes (Section 6.3).
type Translation struct {
	ladder    *Ladder
	bySetting []Setting // indexed by int(phase)-1
}

// NewTranslation builds a translation for a classifier with numPhases
// phases. mapping[i] is the ladder setting for phase i+1.
func NewTranslation(l *Ladder, numPhases int, mapping []Setting) (*Translation, error) {
	if numPhases < 1 {
		return nil, fmt.Errorf("dvfs: translation needs at least one phase, got %d", numPhases)
	}
	if len(mapping) != numPhases {
		return nil, fmt.Errorf("dvfs: mapping has %d entries for %d phases", len(mapping), numPhases)
	}
	cp := make([]Setting, numPhases)
	for i, s := range mapping {
		if !l.ValidSetting(s) {
			return nil, fmt.Errorf("dvfs: mapping for phase %d references invalid setting %d", i+1, s)
		}
		cp[i] = s
	}
	return &Translation{ladder: l, bySetting: cp}, nil
}

// Identity returns the paper's Table 2 translation: phase i runs at
// ladder point i-1, so phase 1 (highly CPU-bound) gets the fastest
// point and phase N the slowest. It requires numPhases == ladder size.
func Identity(l *Ladder, numPhases int) (*Translation, error) {
	if numPhases != l.Len() {
		return nil, fmt.Errorf("dvfs: identity translation needs %d phases to match ladder, got %d", l.Len(), numPhases)
	}
	m := make([]Setting, numPhases)
	for i := range m {
		m[i] = Setting(i)
	}
	return NewTranslation(l, numPhases, m)
}

// Setting returns the ladder setting for a phase. Phases outside the
// table (including phase.None) fall back to the fastest setting: when
// the system knows nothing it must not hurt performance.
func (t *Translation) Setting(p phase.ID) Setting {
	i := int(p) - 1
	if i < 0 || i >= len(t.bySetting) {
		return t.ladder.Fastest()
	}
	return t.bySetting[i]
}

// Ladder returns the ladder this translation targets.
func (t *Translation) Ladder() *Ladder { return t.ladder }

// NumPhases returns the number of phases the table covers.
func (t *Translation) NumPhases() int { return len(t.bySetting) }

// Describe renders the translation as the paper's Table 2.
func (t *Translation) Describe(tab *phase.Table) string {
	var b strings.Builder
	for i := 0; i < len(t.bySetting); i++ {
		id := phase.ID(i + 1)
		lo, hi := tab.Range(id)
		var rangeStr string
		switch {
		case i == 0:
			rangeStr = fmt.Sprintf("< %.3f", hi)
		case math.IsInf(hi, 1):
			rangeStr = fmt.Sprintf("> %.3f", lo)
		default:
			rangeStr = fmt.Sprintf("[%.3f,%.3f)", lo, hi)
		}
		fmt.Fprintf(&b, "%-15s %d  %s\n", rangeStr, i+1, t.ladder.Point(t.bySetting[i]))
	}
	return b.String()
}

// SlowdownModel predicts the execution-time dilation T(f)/T(fmax) of
// code with the given Mem/Uop rate and workload core UPC when run at
// frequency f instead of fmax. Package cpusim provides the model used
// throughout this repo; dvfs takes it as a function to stay
// substrate-independent.
type SlowdownModel func(memPerUop, coreUPC, f, fmax float64) float64

// DeriveBounded computes a conservative translation (the paper's
// Section 6.3): for each phase it picks the slowest ladder setting
// whose predicted slowdown — at the phase's most CPU-bound corner and
// at the most pessimistic (highest) core UPC — stays within maxDeg
// (e.g. 0.05 for a 5% bound). The paper derives the same table from
// IPCxMEM measurements across the grid; we derive it from the timing
// model those measurements characterize.
func DeriveBounded(l *Ladder, tab *phase.Table, model SlowdownModel, maxDeg float64, worstCoreUPC float64) (*Translation, error) {
	if maxDeg < 0 {
		return nil, fmt.Errorf("dvfs: negative degradation bound %v", maxDeg)
	}
	fmax := l.Point(l.Fastest()).FrequencyHz
	mapping := make([]Setting, tab.NumPhases())
	for i := range mapping {
		id := phase.ID(i + 1)
		// The most CPU-bound point of a phase's range suffers the most
		// from slowing down, so bounding it bounds the whole phase.
		lo, _ := tab.Range(id)
		chosen := l.Fastest()
		for s := l.Fastest(); s <= l.Slowest(); s++ {
			f := l.Point(s).FrequencyHz
			slow := model(lo, worstCoreUPC, f, fmax)
			if slow <= 1+maxDeg {
				chosen = s
			} else {
				break
			}
		}
		mapping[i] = chosen
	}
	return NewTranslation(l, tab.NumPhases(), mapping)
}

// Controller actuates DVFS settings on the simulated platform. It
// tracks the current setting and charges a fixed transition latency
// (order of 10–100 µs on SpeedStep hardware) whenever the setting
// changes, so callers can account for actuation overhead.
type Controller struct {
	ladder            *Ladder
	current           Setting
	transitionLatency float64 // seconds per actual mode change

	transitions      int
	timeInTransition float64
}

// DefaultTransitionLatency is the modeled cost of one SpeedStep
// voltage/frequency transition, in seconds.
const DefaultTransitionLatency = 50e-6

// NewController returns a controller positioned at the ladder's
// fastest setting.
func NewController(l *Ladder, transitionLatency float64) *Controller {
	if transitionLatency < 0 {
		transitionLatency = 0
	}
	return &Controller{ladder: l, current: l.Fastest(), transitionLatency: transitionLatency}
}

// Ladder returns the controller's ladder.
func (c *Controller) Ladder() *Ladder { return c.ladder }

// Current returns the active setting.
func (c *Controller) Current() Setting { return c.current }

// Point returns the active operating point.
func (c *Controller) Point() OperatingPoint { return c.ladder.Point(c.current) }

// Set switches to the requested setting, mirroring the handler logic
// of the paper's Figure 8: if the setting equals the current one, the
// mode-set registers are left untouched and no cost is incurred.
// It returns the transition cost in seconds.
func (c *Controller) Set(s Setting) (cost float64, err error) {
	if !c.ladder.ValidSetting(s) {
		return 0, fmt.Errorf("dvfs: invalid setting %d", s)
	}
	if s == c.current {
		return 0, nil
	}
	c.current = s
	c.transitions++
	c.timeInTransition += c.transitionLatency
	return c.transitionLatency, nil
}

// Reset returns the controller to the fastest setting and clears its
// statistics.
func (c *Controller) Reset() {
	c.current = c.ladder.Fastest()
	c.transitions = 0
	c.timeInTransition = 0
}

// Transitions returns how many actual mode changes occurred.
func (c *Controller) Transitions() int { return c.transitions }

// TimeInTransition returns the cumulative transition cost in seconds.
func (c *Controller) TimeInTransition() float64 { return c.timeInTransition }

// LadderFromFrequencies builds a ladder from a platform's frequency
// list (e.g. cpufreq's scaling_available_frequencies) by
// interpolating voltages linearly between the given endpoints — the
// practical bridge from a real machine's DVFS table (which does not
// expose voltages) to this package's power-aware modeling. Frequencies
// may arrive in any order; duplicates are rejected.
func LadderFromFrequencies(name string, freqsHz []float64, vMinV, vMaxV float64) (*Ladder, error) {
	if len(freqsHz) == 0 {
		return nil, fmt.Errorf("%w: no frequencies", ErrBadLadder)
	}
	if !(vMinV > 0) || !(vMaxV >= vMinV) {
		return nil, fmt.Errorf("dvfs: invalid voltage range [%v, %v]", vMinV, vMaxV)
	}
	sorted := make([]float64, len(freqsHz))
	copy(sorted, freqsHz)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	fMax, fMin := sorted[0], sorted[len(sorted)-1]
	points := make([]OperatingPoint, len(sorted))
	for i, f := range sorted {
		v := vMaxV
		if fMax > fMin {
			v = vMinV + (vMaxV-vMinV)*(f-fMin)/(fMax-fMin)
		}
		points[i] = OperatingPoint{FrequencyHz: f, VoltageV: v}
	}
	return NewLadder(name, points)
}
