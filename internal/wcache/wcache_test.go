package wcache

import (
	"sync"
	"testing"

	"phasemon/internal/telemetry"
	"phasemon/internal/workload"
)

func profile(t testing.TB, name string) *workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCachedTraceMatchesFreshGenerator: the cursor view reproduces a
// fresh generator's stream bit for bit — the cache is invisible to
// consumers.
func TestCachedTraceMatchesFreshGenerator(t *testing.T) {
	p := profile(t, "applu_in")
	params := workload.Params{Seed: 9, Intervals: 300}
	c := New(Config{})
	tr := c.Get(p, params)
	if tr.Len() != 300 {
		t.Fatalf("trace length %d, want 300", tr.Len())
	}

	fresh := p.Generator(params)
	cur := tr.Generator()
	for i := 0; ; i++ {
		fw, fok := fresh.Next()
		cw, cok := cur.Next()
		if fok != cok {
			t.Fatalf("interval %d: fresh ok=%v cursor ok=%v", i, fok, cok)
		}
		if !fok {
			break
		}
		if fw != cw {
			t.Fatalf("interval %d: fresh %+v != cached %+v", i, fw, cw)
		}
	}
	// Reset replays identically.
	cur.Reset()
	if w, ok := cur.Next(); !ok || w != tr.Works()[0] {
		t.Fatalf("cursor reset broken: %+v %v", w, ok)
	}
}

// TestKeyResolution: default granularity and the profile's default
// interval count canonicalize, so equivalent requests share a trace.
func TestKeyResolution(t *testing.T) {
	p := profile(t, "applu_in")
	c := New(Config{})
	a := c.Get(p, workload.Params{Seed: 1})
	b := c.Get(p, workload.Params{Seed: 1, GranularityUops: 100e6, Intervals: p.DefaultIntervals})
	if a != b {
		t.Error("equivalent params did not share a trace")
	}
	if a.Len() != p.DefaultIntervals {
		t.Errorf("default trace length %d, want %d", a.Len(), p.DefaultIntervals)
	}
	if d := c.Get(p, workload.Params{Seed: 2}); d == a {
		t.Error("different seeds shared a trace")
	}
}

// TestEvictionBound: the cache never holds more samples than its
// bound; least-recently-used traces leave first; oversize traces are
// served but not cached.
func TestEvictionBound(t *testing.T) {
	p := profile(t, "applu_in")
	hub := telemetry.NewHub(6)
	c := New(Config{MaxSamples: 250, Telemetry: hub})

	k1 := c.Get(p, workload.Params{Seed: 1, Intervals: 100}).key
	k2 := c.Get(p, workload.Params{Seed: 2, Intervals: 100}).key
	if got := c.samples; got != 200 {
		t.Fatalf("samples = %d, want 200", got)
	}
	// Touch k1 so k2 is the LRU victim.
	c.Get(p, workload.Params{Seed: 1, Intervals: 100})
	c.Get(p, workload.Params{Seed: 3, Intervals: 100})
	if cached(c, k2) {
		t.Error("LRU victim k2 still cached")
	}
	if !cached(c, k1) {
		t.Error("recently used k1 evicted")
	}
	if got := c.samples; got > 250 {
		t.Errorf("samples = %d exceeds bound 250", got)
	}
	if got := hub.WorkloadCacheEvictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}

	// An oversize trace is served, correct, and uncached.
	big := c.Get(p, workload.Params{Seed: 4, Intervals: 500})
	if big.Len() != 500 {
		t.Fatalf("oversize trace length %d", big.Len())
	}
	if cached(c, big.key) {
		t.Error("oversize trace was cached")
	}
	if got := c.samples; got > 250 {
		t.Errorf("samples = %d exceeds bound after oversize get", got)
	}
}

// TestTelemetryCounts: hits, misses, and the sample gauge reflect
// cache activity.
func TestTelemetryCounts(t *testing.T) {
	p := profile(t, "applu_in")
	hub := telemetry.NewHub(6)
	c := New(Config{Telemetry: hub})
	c.Get(p, workload.Params{Seed: 1, Intervals: 50})
	c.Get(p, workload.Params{Seed: 1, Intervals: 50})
	c.Get(p, workload.Params{Seed: 1, Intervals: 50})
	c.Get(p, workload.Params{Seed: 2, Intervals: 50})
	if got := hub.WorkloadCacheMisses.Value(); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := hub.WorkloadCacheHits.Value(); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := hub.WorkloadCacheSamples.Value(); got != 100 {
		t.Errorf("samples gauge = %v, want 100", got)
	}
}

// TestSingleFlight: concurrent Gets for one key synthesize exactly
// once and all receive the same trace.
func TestSingleFlight(t *testing.T) {
	p := profile(t, "applu_in")
	hub := telemetry.NewHub(6)
	c := New(Config{Telemetry: hub})
	const goroutines = 16
	traces := make([]*Trace, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i] = c.Get(p, workload.Params{Seed: 7, Intervals: 400})
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if traces[i] != traces[0] {
			t.Fatalf("goroutine %d got a distinct trace", i)
		}
	}
	if got := hub.WorkloadCacheMisses.Value(); got != 1 {
		t.Errorf("misses = %d, want 1 (single flight)", got)
	}
	if got := c.lru.Len(); got != 1 {
		t.Errorf("cached traces = %d, want 1", got)
	}
}

// TestCursorZeroAlloc: iterating a cached trace allocates nothing.
func TestCursorZeroAlloc(t *testing.T) {
	p := profile(t, "applu_in")
	c := New(Config{})
	tr := c.Get(p, workload.Params{Seed: 1, Intervals: 64})
	cur := tr.Generator()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := cur.Next(); !ok {
			cur.Reset()
		}
	})
	if allocs != 0 {
		t.Errorf("cursor Next allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkWorkloadCache contrasts a cache hit (cursor handout) with
// the fresh synthesis it replaces.
func BenchmarkWorkloadCache(b *testing.B) {
	p := profile(b, "applu_in")
	params := workload.Params{Seed: 1, Intervals: 200}

	b.Run("hit", func(b *testing.B) {
		c := New(Config{})
		c.Get(p, params)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := c.Get(p, params)
			gen := tr.Generator()
			for {
				if _, ok := gen.Next(); !ok {
					break
				}
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gen := p.Generator(params)
			for {
				if _, ok := gen.Next(); !ok {
					break
				}
			}
		}
	})
}

// cached reports whether the key is currently cached.
func cached(c *Cache, key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}
