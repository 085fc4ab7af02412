// Package wcache is the shared workload-trace cache: an immutable,
// content-keyed store of fully materialized workload traces
// ([]cpusim.Work) that concurrent consumers — fleet workers, the
// experiments driver, oracle precomputation — read through cheap
// cursor views instead of re-synthesizing the same deterministic
// stream per run.
//
// Workload generators are deterministic functions of (profile, params,
// seed, length), so a trace is fully identified by that tuple and can
// be shared read-only without any risk to the repo's bit-identical
// determinism contract: a consumer cannot tell whether its work items
// came from a fresh generator or the cache (the fleet package's
// fingerprint tests enforce exactly that). What sharing buys is
// allocation: a 16-spec sweep over one workload materializes the trace
// once instead of 16 times.
//
// Concurrency follows the standard single-flight + LRU shape: the
// first Get for a key synthesizes the trace while duplicates wait on
// its flight; completed traces sit in an LRU bounded by *total cached
// samples* (work items), since traces vary in length and the samples,
// not the trace count, are the memory. Hits, misses, evictions, and
// the live sample count are reported through an optional
// telemetry.Hub.
package wcache

import (
	"container/list"
	"sync"

	"phasemon/internal/cpusim"
	"phasemon/internal/telemetry"
	"phasemon/internal/workload"
)

// Key identifies one materialized trace: the full content key of a
// deterministic generator instantiation. Two Gets with equal keys see
// the same backing slice.
type Key struct {
	// Workload is the profile name (e.g. "applu_in").
	Workload string
	// GranularityUops is the resolved interval length in uops.
	GranularityUops float64
	// Seed is the generator seed.
	Seed int64
	// Intervals is the resolved run length (profile default applied).
	Intervals int
}

// KeyFor canonicalizes generation parameters into a Key, resolving the
// same defaults Profile.Generator would (100M-uop granularity, the
// profile's default interval count) so equivalent requests collide.
func KeyFor(p *workload.Profile, params workload.Params) Key {
	if params.GranularityUops <= 0 {
		params.GranularityUops = 100e6
	}
	if params.Intervals <= 0 {
		params.Intervals = p.DefaultIntervals
	}
	return Key{
		Workload:        p.Name,
		GranularityUops: params.GranularityUops,
		Seed:            params.Seed,
		Intervals:       params.Intervals,
	}
}

// Trace is one immutable materialized workload. The backing slice is
// shared by every consumer; it must never be written.
type Trace struct {
	key   Key
	works []cpusim.Work
}

// Len returns the trace length in work items.
func (t *Trace) Len() int { return len(t.works) }

// Works returns the shared read-only backing slice. Callers must not
// modify it — it is the cache's single copy.
func (t *Trace) Works() []cpusim.Work { return t.works }

// Generator returns a fresh cursor over the trace. Cursors satisfy
// workload.Generator, are independent of each other, and allocate
// nothing per Next, so handing one to each fleet worker is free.
func (t *Trace) Generator() workload.Generator { return &Cursor{t: t} }

// Cursor is a read-only iteration view over a shared Trace.
type Cursor struct {
	t *Trace
	i int
}

var _ workload.Generator = (*Cursor)(nil)

// Name implements workload.Generator.
func (c *Cursor) Name() string { return c.t.key.Workload }

// Next implements workload.Generator.
func (c *Cursor) Next() (cpusim.Work, bool) {
	if c.i >= len(c.t.works) {
		return cpusim.Work{}, false
	}
	w := c.t.works[c.i]
	c.i++
	return w, true
}

// Reset implements workload.Generator.
func (c *Cursor) Reset() { c.i = 0 }

// Works exposes the shared backing slice, the fast path
// governor.FuturePhases uses to classify a whole trace without
// re-collecting it. Read-only, as for Trace.Works.
func (c *Cursor) Works() []cpusim.Work { return c.t.works }

// maxSamples bounds the total number of cached work items across all
// traces at 1Mi (~72 MB of cpusim.Work), roughly a thousand
// paper-scale benchmark traces. Traces longer than the bound are
// synthesized and returned but never cached.
const maxSamples = 1 << 20

// Config parameterizes a Cache.
type Config struct {
	// Telemetry, when non-nil, receives hit/miss/eviction counters and
	// the live cached-sample gauge. Nil runs unobserved.
	Telemetry *telemetry.Hub
}

// Cache is the store. Safe for concurrent use.
type Cache struct {
	max int // maxSamples; eviction tests lower it
	tel *telemetry.Hub

	mu       sync.Mutex
	entries  map[Key]*list.Element // guarded by mu; of *Trace
	lru      *list.List            // guarded by mu; front = most recently used
	samples  int                   // guarded by mu
	inflight map[Key]*flight       // guarded by mu
}

type flight struct {
	done chan struct{}
	t    *Trace
}

// New builds a cache.
func New(cfg Config) *Cache {
	return &Cache{
		max:      maxSamples,
		tel:      cfg.Telemetry,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		inflight: make(map[Key]*flight),
	}
}

// Get returns the materialized trace for (profile, params), sharing a
// previously cached one when present. Generation cannot fail (the
// profile's generator is total), so Get always returns a non-nil
// trace. Concurrent Gets for the same key synthesize once.
func (c *Cache) Get(p *workload.Profile, params workload.Params) *Trace {
	key := KeyFor(p, params)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		if c.tel != nil {
			c.tel.WorkloadCacheHits.Inc()
		}
		return el.Value.(*Trace)
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if c.tel != nil {
			// Joining a flight still avoided a synthesis: count it as a
			// hit so hit-rate reflects work saved, not map state.
			c.tel.WorkloadCacheHits.Inc()
		}
		return f.t
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.t = materialize(p, key)
	close(f.done)

	c.mu.Lock()
	delete(c.inflight, key)
	c.insertLocked(f.t)
	samples := c.samples
	c.mu.Unlock()
	if c.tel != nil {
		c.tel.WorkloadCacheMisses.Inc()
		c.tel.WorkloadCacheSamples.Set(float64(samples))
	}
	return f.t
}

// insertLocked adds a freshly built trace, evicting least-recently
// used traces until the sample bound holds. Oversize traces (longer
// than the whole bound) are not cached at all.
func (c *Cache) insertLocked(t *Trace) {
	if t.Len() > c.max {
		return
	}
	if _, ok := c.entries[t.key]; ok {
		// A concurrent flight for the same key can't exist (inflight
		// de-dups), but a prior insert can: keep the existing entry.
		return
	}
	for c.samples+t.Len() > c.max {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		ev := c.lru.Remove(oldest).(*Trace)
		delete(c.entries, ev.key)
		c.samples -= ev.Len()
		if c.tel != nil {
			c.tel.WorkloadCacheEvictions.Inc()
		}
	}
	c.entries[t.key] = c.lru.PushFront(t)
	c.samples += t.Len()
}

// materialize synthesizes the full trace for a key. The work slice is
// sized exactly — the resolved interval count is the length — so the
// build is a single allocation.
func materialize(p *workload.Profile, key Key) *Trace {
	gen := p.Generator(workload.Params{
		GranularityUops: key.GranularityUops,
		Seed:            key.Seed,
		Intervals:       key.Intervals,
	})
	works := make([]cpusim.Work, 0, key.Intervals)
	for {
		w, ok := gen.Next()
		if !ok {
			break
		}
		works = append(works, w)
	}
	return &Trace{key: key, works: works}
}
