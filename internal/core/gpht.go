package core

import (
	"fmt"

	"phasemon/internal/phase"
)

// GPHTConfig parameterizes the Global Phase History Table predictor.
type GPHTConfig struct {
	// GPHRDepth is the length of the Global Phase History Register —
	// how many recent phases form the lookup pattern. The paper uses 8.
	GPHRDepth int
	// PHTEntries is the capacity of the Pattern History Table. The
	// paper evaluates 1024 down to 1 and deploys 128.
	PHTEntries int
	// NumPhases bounds the phase IDs the predictor will observe.
	NumPhases int
	// Hysteresis, when true, requires two consecutive disagreeing
	// outcomes before a stored prediction is replaced (a 2-bit-counter
	// style update, an extension beyond the paper's direct update).
	Hysteresis bool
}

// Validate checks the configuration. Tags are packed 4 bits per phase
// into a uint64, which bounds depth and phase count.
func (c GPHTConfig) Validate() error {
	switch {
	case c.GPHRDepth < 1 || c.GPHRDepth > 16:
		return fmt.Errorf("core: GPHR depth %d outside [1,16]", c.GPHRDepth)
	case c.PHTEntries < 1:
		return fmt.Errorf("core: PHT entries %d must be at least 1", c.PHTEntries)
	case c.NumPhases < 1 || c.NumPhases > 15:
		return fmt.Errorf("core: phase count %d outside [1,15]", c.NumPhases)
	}
	return nil
}

// DefaultGPHTConfig returns the deployed configuration of the paper's
// real-system implementation: depth 8, 128 PHT entries, 6 phases.
func DefaultGPHTConfig() GPHTConfig {
	return GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: 6}
}

// phtEntry is one Pattern History Table row: an observed phase
// pattern (tag), its next-phase prediction, and the age bookkeeping
// used for LRU replacement (the paper's "Age / Invalid" column; -1
// there corresponds to valid=false here).
type phtEntry struct {
	tag uint64
	age uint64
	// pred is the stored phase.ID; phase IDs fit 4 bits (Validate).
	pred  uint8
	valid bool
	// conf is the hysteresis bit: a stored prediction with conf=true
	// survives one disagreeing outcome before being replaced. Unused
	// (always overwritten) in direct-update mode.
	conf bool
}

// GPHT is the Global Phase History Table predictor (the paper's
// Figure 1): a global shift register of recent phases (GPHR) indexes
// an associatively-searched pattern table (PHT) whose entries hold the
// phase that followed each pattern last time. On a PHT miss the GPHR's
// newest phase is predicted — a built-in last-value fallback that
// guarantees the GPHT never does worse than the reactive baseline on
// pattern-free workloads — and the new pattern is installed, evicting
// the least recently used entry when the table is full.
//
// Unlike its branch-predictor ancestor this is a software structure
// living in the OS: capacity is a handler-latency concern, not an SRAM
// budget.
type GPHT struct {
	cfg  GPHTConfig
	name string

	gphr []phase.ID // gphr[0] is the most recent phase
	// tag is packTag() of gphr, kept incrementally by Observe and
	// recomputed by Reset and Restore.
	tag  uint64
	seen int // observations so far (for warm-up accounting)

	pht   []phtEntry
	index *phtIndex // tag -> slot, mirrors associative search
	clock uint64    // LRU age source
	// links[i] places slot i in one of two intrusive lists. A valid
	// slot sits in the recency list, oldest first, which is circular
	// through the sentinel links[len(pht)]: the sentinel's next is the
	// LRU entry, its prev the MRU one. Valid ages are unique, so the
	// list is the valid entries in age order. An invalid slot sits in
	// the free list through next, in ascending slot order, with free
	// its head and -1 its end.
	links []phtLink
	free  int32

	// lastSlot is the PHT slot consulted (or installed) by the most
	// recent prediction; its stored prediction is trained by the next
	// observation. -1 when no slot is pending.
	lastSlot int

	hits, misses uint64
}

var _ StatefulPredictor = (*GPHT)(nil)

// NewGPHT builds the predictor. Every Observe is one PHT lookup,
// counted as a hit or a miss (PHTLookups).
func NewGPHT(cfg GPHTConfig) (*GPHT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPHT{
		cfg:      cfg,
		name:     fmt.Sprintf("GPHT_%d_%d", cfg.GPHRDepth, cfg.PHTEntries),
		gphr:     make([]phase.ID, cfg.GPHRDepth),
		pht:      make([]phtEntry, cfg.PHTEntries),
		links:    make([]phtLink, cfg.PHTEntries+1),
		index:    newPHTIndex(cfg.PHTEntries),
		lastSlot: -1,
	}
	g.resetRecency()
	return g, nil
}

// MustNewGPHT is NewGPHT that panics on config errors; for defaults
// and tests.
func MustNewGPHT(cfg GPHTConfig) *GPHT {
	g, err := NewGPHT(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Predictor.
func (g *GPHT) Name() string { return g.name }

// PHTLookups returns p's running PHT lookup counts when p is a GPHT,
// and zeros otherwise. Every Observe counts one lookup, so a stepping
// loop that publishes telemetry reads them before and after a batch
// and publishes the difference.
func PHTLookups(p Predictor) (hits, misses uint64) {
	if g, ok := p.(*GPHT); ok {
		return g.hits, g.misses
	}
	return 0, 0
}

// TableEntries reports the PHT capacity; the kernel module uses it to
// model the handler's associative-search cost.
func (g *GPHT) TableEntries() int { return g.cfg.PHTEntries }

// Observe implements Predictor: it trains the previously consulted PHT
// entry with the observed outcome, shifts the GPHR, and looks up the
// new pattern.
//
//lint:hotpath
func (g *GPHT) Observe(o Observation) phase.ID {
	actual := o.Phase
	if !actual.Valid(g.cfg.NumPhases) {
		// Clamp garbage to the nearest valid phase so the table never
		// holds unrepresentable IDs.
		if actual < 1 {
			actual = 1
		} else {
			actual = phase.ID(g.cfg.NumPhases)
		}
	}

	// Train the entry consulted by the previous prediction with what
	// actually happened: direct replacement in the paper's design, or
	// a one-miss-tolerant update when hysteresis is enabled.
	if g.lastSlot >= 0 {
		e := &g.pht[g.lastSlot]
		if e.valid {
			switch {
			case phase.ID(e.pred) == phase.None || !g.cfg.Hysteresis:
				e.pred = uint8(actual)
				e.conf = false
			case phase.ID(e.pred) == actual:
				e.conf = true
			case e.conf:
				e.conf = false // tolerate the first disagreement
			default:
				e.pred = uint8(actual)
			}
		}
		g.lastSlot = -1
	}

	// Shift the GPHR: newest phase enters at index 0, and its nibble
	// enters the tag at the top as the oldest one shifts out.
	copy(g.gphr[1:], g.gphr)
	g.gphr[0] = actual
	g.seen++
	g.tag = g.tag>>4 | uint64(actual)<<(4*(len(g.gphr)-1))

	tag := g.tag
	if slot, ok := g.index.get(tag); ok {
		g.hits++
		g.clock++
		g.pht[slot].age = g.clock
		g.touch(int32(slot))
		g.lastSlot = slot
		pred := phase.ID(g.pht[slot].pred)
		if pred == phase.None {
			pred = actual // untrained entry: last-value fallback
		}
		return pred
	}

	// Miss: install the pattern (LRU victim) and fall back to
	// last-value prediction.
	g.misses++
	slot := g.victim()
	old := &g.pht[slot]
	if old.valid {
		g.index.del(old.tag)
		g.unlink(int32(slot))
	} else {
		g.free = g.links[slot].next
	}
	g.clock++
	*old = phtEntry{tag: tag, age: g.clock, valid: true}
	g.pushMRU(int32(slot))
	g.index.put(tag, slot)
	g.lastSlot = slot
	return actual
}

// packTag encodes the GPHR contents 4 bits per phase, newest
// (gphr[0]) in the high bits and oldest in the low nibble. Unfilled
// (warm-up) positions encode as 0, which cannot collide with a valid
// phase. Observe keeps the same value in g.tag incrementally.
func (g *GPHT) packTag() uint64 {
	var t uint64
	for _, p := range g.gphr {
		t = t<<4 | uint64(p)&0xF
	}
	return t
}

// phtLink is one slot's place in a GPHT list: the neighbouring slots.
type phtLink struct{ prev, next int32 }

// victim picks the first invalid slot by index if one exists,
// otherwise the least recently used entry: the head of the free list,
// else the head of the recency list.
func (g *GPHT) victim() int {
	if g.free >= 0 {
		return int(g.free)
	}
	return int(g.links[len(g.pht)].next)
}

// unlink removes slot i from the recency list.
func (g *GPHT) unlink(i int32) {
	l := g.links
	p, n := l[i].prev, l[i].next
	l[p].next = n
	l[n].prev = p
}

// pushMRU appends slot i, on no list, to the recency list as its newest
// entry.
func (g *GPHT) pushMRU(i int32) {
	l := g.links
	s := int32(len(g.pht))
	p := l[s].prev
	l[i] = phtLink{prev: p, next: s}
	l[p].next = i
	l[s].prev = i
}

// touch makes slot i, in the recency list, its newest entry.
func (g *GPHT) touch(i int32) {
	if g.links[len(g.pht)].prev != i {
		g.unlink(i)
		g.pushMRU(i)
	}
}

// resetRecency rebuilds both lists from the table's valid bits and
// ages: invalid slots in ascending order, valid ones in ascending age
// (ties by slot, which only a snapshot Restore rejects could produce).
func (g *GPHT) resetRecency() {
	l := g.links
	g.free = -1
	valid := int32(-1) // the valid slots, chained through next by index
	for i := int32(len(g.pht)) - 1; i >= 0; i-- {
		if g.pht[i].valid {
			l[i].next, valid = valid, i
		} else {
			l[i].next, g.free = g.free, i
		}
	}
	s := int32(len(g.pht))
	l[s] = phtLink{prev: s, next: s}
	for i := g.sortByAge(valid); i >= 0; {
		next := l[i].next
		g.pushMRU(i)
		i = next
	}
}

// sortByAge merge-sorts the list of slots chained through next from
// head (-1 ends it) by ascending age, stably and without allocating,
// and returns its new head.
func (g *GPHT) sortByAge(head int32) int32 {
	l := g.links
	if head < 0 || l[head].next < 0 {
		return head
	}
	slow, fast := head, l[head].next
	for fast >= 0 && l[fast].next >= 0 {
		slow, fast = l[slow].next, l[l[fast].next].next
	}
	second := l[slow].next
	l[slow].next = -1
	a, b := g.sortByAge(head), g.sortByAge(second)
	first, last := int32(-1), int32(-1)
	for a >= 0 || b >= 0 {
		take := b
		if b < 0 || (a >= 0 && g.pht[a].age <= g.pht[b].age) {
			take, a = a, l[a].next
		} else {
			b = l[b].next
		}
		if last < 0 {
			first = take
		} else {
			l[last].next = take
		}
		last = take
	}
	l[last].next = -1
	return first
}

// Utilization returns the fraction of PHT entries currently valid.
func (g *GPHT) Utilization() float64 {
	n := 0
	for i := range g.pht {
		if g.pht[i].valid {
			n++
		}
	}
	return float64(n) / float64(len(g.pht))
}

// Reset implements Predictor.
func (g *GPHT) Reset() {
	for i := range g.gphr {
		g.gphr[i] = phase.None
	}
	g.tag = g.packTag()
	for i := range g.pht {
		g.pht[i] = phtEntry{}
	}
	g.index.reset()
	g.resetRecency()
	g.clock = 0
	g.seen = 0
	g.lastSlot = -1
	g.hits = 0
	g.misses = 0
}
