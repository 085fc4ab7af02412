// Package core implements the paper's primary contribution: live,
// runtime phase prediction. It provides the Predictor interface, the
// Global Phase History Table (GPHT) predictor leveraged from two-level
// branch prediction, the statistical baseline predictors the paper
// compares against (last value, fixed window, variable window), and
// the Monitor that binds classification and prediction into the
// sampling loop executed by the PMI handler.
package core

import (
	"errors"
	"fmt"
	"math"

	"phasemon/internal/phase"
)

// Observation is the measured behavior of one completed sampling
// interval: the raw counter-derived sample and its classified phase.
type Observation struct {
	Sample phase.Sample
	Phase  phase.ID
}

// Predictor forecasts the next interval's phase from the history of
// completed intervals.
//
// The protocol matches the PMI handler's loop: at each sampling
// boundary the handler calls Observe with the interval that just
// finished, and the return value is the prediction for the interval
// about to run.
type Predictor interface {
	// Name identifies the predictor using the paper's labels
	// (e.g. "GPHT_8_1024", "LastValue").
	Name() string
	// Observe records a completed interval and returns the predicted
	// phase of the next interval.
	Observe(o Observation) phase.ID
	// Reset clears all history.
	Reset()
}

// lastValue predicts Phase[t+1] = Phase[t]: the simplest statistical
// predictor and the reactive-management baseline of Section 6.2.
type lastValue struct {
	last phase.ID
}

// NewLastValue returns the last-value predictor.
func NewLastValue() StatefulPredictor { return &lastValue{} }

var (
	_ StatefulPredictor = (*lastValue)(nil)
	_ StatefulPredictor = (*fixedWindow)(nil)
	_ StatefulPredictor = (*variableWindow)(nil)
	_ StatefulPredictor = (*oracle)(nil)
)

func (p *lastValue) Name() string { return "LastValue" }

func (p *lastValue) Observe(o Observation) phase.ID {
	p.last = o.Phase
	return p.last
}

func (p *lastValue) Reset() { p.last = phase.None }

// WindowMode selects how a fixed-window predictor combines its
// history, mirroring the paper's "averaging function, exponential
// moving average, or selector based on population counts".
type WindowMode int

// Fixed-window combination modes.
const (
	// ModeMajority predicts the most frequent phase in the window,
	// breaking ties toward the most recently observed contender.
	ModeMajority WindowMode = iota
	// ModeMean averages the window's Mem/Uop values and classifies
	// the mean.
	ModeMean
	// ModeEMA keeps an exponential moving average of Mem/Uop with
	// smoothing 2/(winsize+1) and classifies it.
	ModeEMA
)

// String names the mode.
func (m WindowMode) String() string {
	switch m {
	case ModeMajority:
		return "majority"
	case ModeMean:
		return "mean"
	case ModeEMA:
		return "ema"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// fixedWindow predicts from the last winsize observations.
type fixedWindow struct {
	name    string
	size    int
	mode    WindowMode
	cls     phase.Classifier
	votes   windowTally
	mems    []float64
	ema     float64
	emaInit bool
	last    phase.ID
}

// NewFixedWindow builds a fixed-history-window predictor. The
// classifier is required for ModeMean and ModeEMA (which re-classify a
// smoothed Mem/Uop) and ignored for ModeMajority.
func NewFixedWindow(size int, mode WindowMode, cls phase.Classifier) (StatefulPredictor, error) {
	if size < 1 {
		return nil, fmt.Errorf("core: window size %d must be at least 1", size)
	}
	if (mode == ModeMean || mode == ModeEMA) && cls == nil {
		return nil, fmt.Errorf("core: window mode %v requires a classifier", mode)
	}
	if mode < ModeMajority || mode > ModeEMA {
		return nil, fmt.Errorf("core: unknown window mode %d", int(mode))
	}
	return &fixedWindow{
		name:  fmt.Sprintf("FixWindow_%d", size),
		size:  size,
		mode:  mode,
		cls:   cls,
		votes: windowTally{size: size},
	}, nil
}

func (p *fixedWindow) Name() string { return p.name }

// Observe implements Predictor.
//
//lint:hotpath
func (p *fixedWindow) Observe(o Observation) phase.ID {
	p.last = o.Phase
	switch p.mode {
	case ModeEMA:
		alpha := 2 / (float64(p.size) + 1)
		if !p.emaInit {
			p.ema = o.Sample.MemPerUop
			p.emaInit = true
		} else {
			// float64 rounds each product before the add, so no
			// architecture fuses them.
			p.ema = float64(alpha*o.Sample.MemPerUop) + float64((1-alpha)*p.ema)
		}
		return p.cls.Classify(phase.Sample{MemPerUop: p.ema})
	case ModeMean:
		p.mems = appendWindow(p.mems, o.Sample.MemPerUop, p.size)
		var sum float64
		for _, m := range p.mems {
			sum += m
		}
		return p.cls.Classify(phase.Sample{MemPerUop: sum / float64(len(p.mems))})
	default: // ModeMajority
		p.votes.push(o.Phase)
		return p.votes.vote(p.last)
	}
}

func (p *fixedWindow) Reset() {
	p.votes.reset()
	p.mems = p.mems[:0]
	p.ema = 0
	p.emaInit = false
	p.last = phase.None
}

// variableWindow is the paper's variable-history predictor: a majority
// window that is flushed whenever a phase transition (a Mem/Uop jump
// beyond the threshold) makes older history obsolete.
type variableWindow struct {
	name      string
	size      int
	threshold float64
	votes     windowTally
	lastMem   float64
	havePrev  bool
	last      phase.ID
}

// NewVariableWindow builds a variable-history-window predictor with
// the given maximum window size and transition threshold (the paper
// evaluates 128-entry windows with thresholds 0.005 and 0.030).
func NewVariableWindow(size int, threshold float64) (StatefulPredictor, error) {
	if size < 1 {
		return nil, fmt.Errorf("core: window size %d must be at least 1", size)
	}
	if threshold < 0 || math.IsNaN(threshold) {
		return nil, fmt.Errorf("core: threshold %v must be non-negative", threshold)
	}
	return &variableWindow{
		name:      fmt.Sprintf("VarWindow_%d_%.3f", size, threshold),
		size:      size,
		threshold: threshold,
		votes:     windowTally{size: size},
	}, nil
}

func (p *variableWindow) Name() string { return p.name }

// Observe implements Predictor.
//
//lint:hotpath
func (p *variableWindow) Observe(o Observation) phase.ID {
	if p.havePrev && math.Abs(o.Sample.MemPerUop-p.lastMem) > p.threshold {
		// Phase transition: previous history is obsolete.
		p.votes.reset()
	}
	p.lastMem = o.Sample.MemPerUop
	p.havePrev = true
	p.last = o.Phase
	p.votes.push(o.Phase)
	return p.votes.vote(p.last)
}

func (p *variableWindow) Reset() {
	p.votes.reset()
	p.lastMem = 0
	p.havePrev = false
	p.last = phase.None
}

// appendWindow appends keeping at most size elements (dropping the
// oldest).
func appendWindow(w []float64, v float64, size int) []float64 {
	w = append(w, v)
	if len(w) > size {
		copy(w, w[1:])
		w = w[:size]
	}
	return w
}

// windowTally is the majority vote over a sliding window of the last
// size phase IDs, kept incrementally so each push costs O(distinct
// phases in the window) instead of a rescan of the whole window.
//
// ring holds the window; once it is full, head indexes the oldest ID,
// which the next push overwrites. entries has one row per distinct
// phase in the window: its count and the stream position of its latest
// occurrence. The vote is the argmax of (count, latest) over entries.
//
// That argmax is the rule a full rescan of the window applies (the
// tests keep one as the reference): most frequent phase, ties broken
// toward the most recent occurrence. They agree because a window index
// is the stream position minus one offset shared by every phase, so
// latest positions order phases exactly as window indices do. Distinct
// phases have distinct latest positions, which makes (count, latest) a
// strict total order with a unique maximum.
type windowTally struct {
	size    int
	ring    []phase.ID
	head    int
	pos     uint64
	entries []tallyEntry
}

// tallyEntry is one distinct phase's row in a windowTally.
type tallyEntry struct {
	id     phase.ID
	count  int
	latest uint64
}

// push appends id as the newest window entry, evicting the oldest once
// the window holds size IDs.
func (t *windowTally) push(id phase.ID) {
	if len(t.ring) < t.size {
		t.ring = append(t.ring, id)
	} else {
		t.evict(t.ring[t.head])
		t.ring[t.head] = id
		t.head++
		if t.head == t.size {
			t.head = 0
		}
	}
	t.pos++
	i := t.find(id)
	if i < 0 {
		t.entries = append(t.entries, tallyEntry{id: id})
		i = len(t.entries) - 1
	}
	t.entries[i].count++
	t.entries[i].latest = t.pos
}

// evict drops one occurrence of id, removing its row at count zero.
// The evicted occurrence is id's oldest, so a surviving row's latest
// position is unchanged.
func (t *windowTally) evict(id phase.ID) {
	i := t.find(id)
	t.entries[i].count--
	if t.entries[i].count == 0 {
		last := len(t.entries) - 1
		t.entries[i] = t.entries[last]
		t.entries = t.entries[:last]
	}
}

func (t *windowTally) find(id phase.ID) int {
	for i := range t.entries {
		if t.entries[i].id == id {
			return i
		}
	}
	return -1
}

// vote returns the window's majority phase, or fallback for an empty
// window.
func (t *windowTally) vote(fallback phase.ID) phase.ID {
	if len(t.entries) == 0 {
		return fallback
	}
	best := t.entries[0]
	for _, e := range t.entries[1:] {
		if e.count > best.count || (e.count == best.count && e.latest > best.latest) {
			best = e
		}
	}
	return best.id
}

// len returns the number of IDs in the window.
func (t *windowTally) len() int { return len(t.ring) }

// appendIDs appends the window's IDs to dst oldest first, one byte
// each: the snapshot encoding of a phase window.
func (t *windowTally) appendIDs(dst []byte) []byte {
	for _, id := range t.ring[t.head:] {
		dst = append(dst, byte(id))
	}
	for _, id := range t.ring[:t.head] {
		dst = append(dst, byte(id))
	}
	return dst
}

// loadIDs replaces the window with ids, oldest first: the inverse of
// appendIDs.
func (t *windowTally) loadIDs(ids []byte) {
	t.reset()
	for _, b := range ids {
		t.push(phase.ID(b))
	}
}

// reset empties the window, keeping its storage.
func (t *windowTally) reset() {
	t.ring = t.ring[:0]
	t.head = 0
	t.pos = 0
	t.entries = t.entries[:0]
}

// ErrNoObservations reports an evaluation over an empty trace.
var ErrNoObservations = errors.New("core: no observations")

// oracle replays a known future — the upper bound used in ablations.
// It is not implementable on a live system; it exists to quantify how
// much headroom remains above a predictor.
type oracle struct {
	future []phase.ID
	i      int
}

// NewOracle returns a predictor that, at step t, "predicts" the
// recorded future phase t+1. After the recorded future is exhausted it
// degrades to last-value.
func NewOracle(future []phase.ID) StatefulPredictor {
	cp := make([]phase.ID, len(future))
	copy(cp, future)
	return &oracle{future: cp}
}

func (p *oracle) Name() string { return "Oracle" }

func (p *oracle) Observe(o Observation) phase.ID {
	p.i++
	if p.i < len(p.future) {
		return p.future[p.i]
	}
	return o.Phase
}

func (p *oracle) Reset() { p.i = 0 }
