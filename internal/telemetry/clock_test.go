package telemetry

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestWithClockStampsEvents proves an injected clock makes journal
// timestamps deterministic: a stepping loop stamps every event it
// records into its StepBatch with a reading of the hub's clock through
// Hub.Now, not the wall clock.
func TestWithClockStampsEvents(t *testing.T) {
	var ticks int64
	clock := func() time.Time {
		ticks++
		return time.Unix(0, ticks*1_000_000)
	}
	h := NewHub(6, WithClock(clock))

	b := h.NewStepBatch()
	b.Prediction(0, 2, 2, h.Now().UnixNano())
	b.Publish()
	b.Transition(1, 2, 3, h.Now().UnixNano())
	b.Publish()
	b.DVFSChange(1, 0, 4, h.Now().UnixNano())
	b.PMISample(2, 0.01, 1.5, h.Now().UnixNano())
	b.Publish()

	events := h.Journal.Recent(0)
	if len(events) != 4 {
		t.Fatalf("journal holds %d events, want 4", len(events))
	}
	for i, e := range events {
		want := int64(i+1) * 1_000_000
		if e.UnixNs != want {
			t.Errorf("event %d (%v): UnixNs = %d, want %d", i, e.Kind, e.UnixNs, want)
		}
	}
}

// TestHubClockDefaults pins the fallback contract: Now and Clock read
// the wall clock on a nil hub and on a hub built without WithClock.
func TestHubClockDefaults(t *testing.T) {
	var nilHub *Hub
	before := time.Now()
	if got := nilHub.Now(); got.Before(before) {
		t.Errorf("nil hub Now() = %v, before %v", got, before)
	}
	if nilHub.Clock() == nil {
		t.Error("nil hub Clock() = nil, want wall clock")
	}
	h := NewHub(6)
	if got := h.Now(); got.Before(before) {
		t.Errorf("default hub Now() = %v, before %v", got, before)
	}

	fixed := time.Unix(42, 0)
	hc := NewHub(6, WithClock(func() time.Time { return fixed }))
	if got := hc.Now(); !got.Equal(fixed) {
		t.Errorf("injected clock Now() = %v, want %v", got, fixed)
	}
	if got := hc.Clock()(); !got.Equal(fixed) {
		t.Errorf("injected Clock()() = %v, want %v", got, fixed)
	}
}

// TestHistogramMergeEqualsCombined is the rollup pipeline's merge
// property: snapshotting N shard histograms and merging them must
// equal snapshotting one histogram that observed every shard's
// samples. Exercised over random shard counts and sample sets.
func TestHistogramMergeEqualsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		shards := 1 + rng.Intn(8)
		combined := MustNewHistogram(DefaultFrameBounds)
		parts := make([]*Histogram, shards)
		for i := range parts {
			parts[i] = MustNewHistogram(DefaultFrameBounds)
		}
		for n := 0; n < 500; n++ {
			v := rng.Float64() * 0.2 // spans all buckets incl. +Inf
			s := rng.Intn(shards)
			parts[s].Observe(v)
			combined.Observe(v)
		}

		merged := parts[0].Snapshot()
		for _, p := range parts[1:] {
			if err := merged.Merge(p.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		want := combined.Snapshot()
		if merged.Count != want.Count {
			t.Fatalf("trial %d: merged count %d, combined %d", trial, merged.Count, want.Count)
		}
		for i := range want.Counts {
			if merged.Counts[i] != want.Counts[i] {
				t.Errorf("trial %d bucket %d: merged %d, combined %d", trial, i, merged.Counts[i], want.Counts[i])
			}
		}
		// Sums are float adds in different orders; allow rounding slack.
		if diff := merged.Sum - want.Sum; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("trial %d: merged sum %v, combined %v", trial, merged.Sum, want.Sum)
		}
	}
}

// TestObserveNEqualsRepeatedObserve is the batch-equals-single
// property of the per-batch histogram path: ObserveN(v, n) leaves the
// snapshot — buckets, count and the float sum, bit for bit — that n
// Observe(v) calls leave, on top of any prior state; n ≤ 0 and NaN
// change nothing.
func TestObserveNEqualsRepeatedObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	batch := MustNewHistogram(DefaultFrameBounds)
	single := MustNewHistogram(DefaultFrameBounds)
	for trial := 0; trial < 300; trial++ {
		v := rng.Float64() * 0.2 // spans all buckets incl. +Inf
		switch trial % 10 {
		case 0:
			v = DefaultFrameBounds[rng.Intn(len(DefaultFrameBounds))] // exact bound: "le"
		case 1:
			v = 0
		}
		n := 1 + rng.Intn(130)
		batch.ObserveN(v, n)
		for k := 0; k < n; k++ {
			single.Observe(v)
		}
		got, want := batch.Snapshot(), single.Snapshot()
		if got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("trial %d (v=%v n=%d): count/sum %d/%v, want %d/%v",
				trial, v, n, got.Count, got.Sum, want.Count, want.Sum)
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("trial %d bucket %d: %d, want %d", trial, i, got.Counts[i], want.Counts[i])
			}
		}
	}

	before := batch.Snapshot()
	batch.ObserveN(1e-6, 0)
	batch.ObserveN(1e-6, -5)
	batch.ObserveN(math.NaN(), 7)
	after := batch.Snapshot()
	if after.Count != before.Count || after.Sum != before.Sum {
		t.Fatalf("no-op ObserveN calls changed the histogram: %+v, want %+v", after, before)
	}
	var nilHist *Histogram
	nilHist.ObserveN(1, 3) // must not panic
}

// TestHistogramMergeRejectsMismatchedBounds pins the error contract:
// merging histograms with different bucketing fails and leaves the
// receiver unchanged.
func TestHistogramMergeRejectsMismatchedBounds(t *testing.T) {
	a := MustNewHistogram([]float64{1, 2, 3})
	a.Observe(1.5)
	b := MustNewHistogram([]float64{1, 2, 4})
	b.Observe(1.5)
	c := MustNewHistogram([]float64{1, 2})
	c.Observe(1.5)

	snap := a.Snapshot()
	before := a.Snapshot()
	if err := snap.Merge(b.Snapshot()); err == nil {
		t.Error("merging different bounds: err = nil, want error")
	}
	if err := snap.Merge(c.Snapshot()); err == nil {
		t.Error("merging different bucket counts: err = nil, want error")
	}
	if snap.Count != before.Count || snap.Sum != before.Sum {
		t.Errorf("failed merge mutated receiver: %+v, want %+v", snap, before)
	}
}

// TestSnapshotMultiPrefix proves the multi-family export filter: a
// registry carrying three families exports exactly the requested two.
func TestSnapshotMultiPrefix(t *testing.T) {
	r := NewRegistry()
	r.Counter("phasemon_phased_frames_in_total").Inc()
	r.Counter("phasemon_agg_ingested_total").Inc()
	r.Counter("phasemon_monitor_steps_total").Inc()

	s := r.SnapshotPrefix(PhasedPrefix, AggPrefix)
	if len(s.Counters) != 2 {
		t.Fatalf("got %d counters, want 2: %v", len(s.Counters), s.Counters)
	}
	if _, ok := s.Counters["phasemon_phased_frames_in_total"]; !ok {
		t.Error("phased counter missing from multi-prefix snapshot")
	}
	if _, ok := s.Counters["phasemon_agg_ingested_total"]; !ok {
		t.Error("agg counter missing from multi-prefix snapshot")
	}
	if all := r.SnapshotPrefix(); len(all.Counters) != 3 {
		t.Errorf("no-prefix snapshot has %d counters, want 3", len(all.Counters))
	}
}
