package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe
// for concurrent use and are no-ops on a nil receiver, so unobserved
// code paths can keep unconditional Inc() calls at near-zero cost.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. Safe for
// concurrent use; no-op on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value; zero on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets defined by
// ascending upper bounds; an implicit +Inf bucket catches everything
// beyond the last bound. Observation is lock-free (atomic adds) and a
// no-op on a nil receiver. NaN observations are dropped: they belong
// to no bucket and would poison the sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds (exclusive of +Inf)
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-updated
}

// NewHistogram builds a histogram from strictly ascending, finite
// upper bounds. At least one bound is required (the +Inf bucket is
// implicit).
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("telemetry: histogram needs at least one bucket bound")
	}
	prev := math.Inf(-1)
	for _, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("telemetry: bucket bound %v is not finite", b)
		}
		if b <= prev {
			return nil, fmt.Errorf("telemetry: bucket bound %v not above %v", b, prev)
		}
		prev = b
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, counts: make([]atomic.Uint64, len(cp)+1)}, nil
}

// Observe records one sample. A sample lands in the first bucket whose
// upper bound is >= v (Prometheus "le" semantics); values above every
// bound land in the +Inf bucket.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of the same value v with one bucket add
// and one sum CAS: the per-batch form of Observe. The sum adds v n
// times in turn rather than adding v*n, so the snapshot is bit-for-bit
// the one n Observe(v) calls would leave. n ≤ 0 and NaN are no-ops.
//
//lint:hotpath
func (h *Histogram) ObserveN(v float64, n int) {
	if h == nil || n <= 0 || math.IsNaN(v) {
		return
	}
	h.counts[h.bucket(v)].Add(uint64(n))
	for {
		old := h.sum.Load()
		sum := math.Float64frombits(old)
		for k := 0; k < n; k++ {
			sum += v
		}
		if h.sum.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// bucket returns the index of the bucket v lands in.
func (h *Histogram) bucket(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// addBatch merges pre-bucketed observations — per-bucket counts in
// the histogram's layout and their sum — with one atomic add per
// non-zero bucket and one sum CAS: StepBatch.Publish's path.
func (h *Histogram) addBatch(counts []uint64, sum float64) {
	seen := false
	for i, n := range counts {
		if n != 0 {
			h.counts[i].Add(n)
			seen = true
		}
	}
	if !seen {
		return
	}
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sum)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; the final +Inf bucket is
	// implicit (Counts has one more element than Bounds).
	Bounds []float64 `json:"bounds"`
	// Counts are per-bucket observation counts, not cumulative.
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
}

// Snapshot copies the histogram state. Because buckets are read one by
// one while writers proceed, the copy is consistent only up to the
// atomicity of each bucket — fine for monitoring, not for accounting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// NumBuckets returns the bucket count including the +Inf bucket.
func (h *Histogram) NumBuckets() int {
	if h == nil {
		return 0
	}
	return len(h.counts)
}

// Registry is a named collection of instruments. Lookups are
// get-or-create and safe for concurrent use; every method is a no-op
// (returning a nil instrument, itself safe to use) on a nil receiver.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter   // guarded by mu
	gauges     map[string]*Gauge     // guarded by mu
	histograms map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. An existing histogram is returned as-is (its
// original bounds win), mirroring get-or-create counter semantics.
func (r *Registry) Histogram(name string, bounds []float64) (*Histogram, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h, nil
	}
	nh, err := NewHistogram(bounds)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = nh
		r.histograms[name] = h
	}
	return h, nil
}

// Snapshot captures all instruments at a point in time.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every registered instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	return r.SnapshotPrefix("")
}

// SnapshotPrefix copies every registered instrument whose name begins
// with one of the given prefixes — the filter a service uses to export
// only its own metric families (e.g. telemetry.PhasedPrefix and
// telemetry.AggPrefix) off a hub that also carries the in-process
// instruments. No prefixes, or any empty prefix, selects everything.
func (r *Registry) SnapshotPrefix(prefixes ...string) Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	match := func(name string) bool {
		if len(prefixes) == 0 {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		if match(name) {
			s.Counters[name] = c.Value()
		}
	}
	for name, g := range r.gauges {
		if match(name) {
			s.Gauges[name] = g.Value()
		}
	}
	for name, h := range r.histograms {
		if match(name) {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// sortedKeys returns map keys in lexical order for deterministic
// export.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
