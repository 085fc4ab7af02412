package agg

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"phasemon/internal/dvfs"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// TestLatencyBoundsMatchWireFormat pins the cross-package invariant
// the rollup grid encodes: the wire format's latency-bucket count is
// telemetry's frame-latency bounds plus the overflow bucket.
func TestLatencyBoundsMatchWireFormat(t *testing.T) {
	if len(telemetry.DefaultFrameBounds) != wire.RollupLatBuckets-1 {
		t.Fatalf("len(DefaultFrameBounds) = %d, wire.RollupLatBuckets-1 = %d; the Rollup payload layout depends on these agreeing",
			len(telemetry.DefaultFrameBounds), wire.RollupLatBuckets-1)
	}
}

// TestBucketBoundaries proves samples land in the bucket covering
// their timestamp: the boundary instant starts the next bucket, and
// buckets align to multiples of the bucket length.
func TestBucketBoundaries(t *testing.T) {
	a := New(Config{Shards: 1, BucketLenNs: 1000, NumBuckets: 4})
	ingest := func(nowNs int64) {
		a.IngestAt(0, nowNs, 7, phase.ClassBalanced, dvfs.SpeedStep1200, OutcomeHit, 10)
	}
	ingest(1999) // bucket [1000, 2000)
	ingest(2000) // bucket [2000, 3000) — boundary starts the next bucket
	ingest(2001)
	ingest(3500) // bucket [3000, 4000)

	var got []wire.Rollup
	a.FlushAll(func(r *wire.Rollup) { got = append(got, *r) })
	if len(got) != 3 {
		t.Fatalf("flushed %d buckets, want 3", len(got))
	}
	wantStarts := []uint64{1000, 2000, 3000}
	wantCounts := []uint64{1, 2, 1}
	for i, r := range got {
		if r.BucketStart != wantStarts[i] {
			t.Errorf("bucket %d: start = %d, want %d", i, r.BucketStart, wantStarts[i])
		}
		var n uint64
		for _, c := range r.Samples {
			n += c
		}
		if n != wantCounts[i] {
			t.Errorf("bucket %d: samples = %d, want %d", i, n, wantCounts[i])
		}
		if r.BucketLenNs != 1000 {
			t.Errorf("bucket %d: len = %d, want 1000", i, r.BucketLenNs)
		}
	}
}

// TestOutcomeAccounting pins what each outcome contributes: unscored
// starts a session, hit/miss score, shed counts separately, and the
// latency histogram sees only served samples.
func TestOutcomeAccounting(t *testing.T) {
	a := New(Config{Shards: 1, BucketLenNs: 1_000_000, NumBuckets: 4})
	cell := cellFor(phase.ClassCPUBound, dvfs.SpeedStep1500)
	a.IngestAt(0, 0, 1, phase.ClassCPUBound, dvfs.SpeedStep1500, OutcomeUnscored, 100)
	a.IngestAt(0, 0, 1, phase.ClassCPUBound, dvfs.SpeedStep1500, OutcomeHit, 200)
	a.IngestAt(0, 0, 1, phase.ClassCPUBound, dvfs.SpeedStep1500, OutcomeMiss, 300)
	a.IngestAt(0, 0, 1, phase.ClassCPUBound, dvfs.SpeedStep1500, OutcomeShed, 0)

	var r wire.Rollup
	flushed := 0
	a.FlushAll(func(got *wire.Rollup) { r = *got; flushed++ })
	if flushed != 1 {
		t.Fatalf("flushed %d rollups, want 1", flushed)
	}
	if r.Starts != 1 || r.Shed != 1 {
		t.Errorf("starts=%d shed=%d, want 1 and 1", r.Starts, r.Shed)
	}
	if r.Samples[cell] != 3 || r.Hits[cell] != 1 || r.Misses[cell] != 1 {
		t.Errorf("cell: samples=%d hits=%d misses=%d, want 3/1/1", r.Samples[cell], r.Hits[cell], r.Misses[cell])
	}
	if r.LatSumNs != 600 {
		t.Errorf("latSum = %d, want 600 (shed samples carry no latency)", r.LatSumNs)
	}
	var latN uint64
	for _, c := range r.LatCounts {
		latN += c
	}
	if latN != 3 {
		t.Errorf("latency observations = %d, want 3", latN)
	}
	if r.Top[0].SessionID != 1 || r.Top[0].Samples != 3 {
		t.Errorf("top[0] = %+v, want session 1 with 3 samples", r.Top[0])
	}
}

// TestOverloadCounters proves the two overload paths are observable:
// a sample older than the ring is dropped as late, and an unflushed
// bucket reclaimed by a newer window is counted as dropped.
func TestOverloadCounters(t *testing.T) {
	hub := telemetry.NewHub(6)
	a := New(Config{Shards: 1, BucketLenNs: 1000, NumBuckets: 2, Telemetry: hub})
	late := hub.Registry.Counter(telemetry.MetricAggLateSamples)
	dropped := hub.Registry.Counter(telemetry.MetricAggBucketsDropped)

	a.IngestAt(0, 1500, 1, phase.ClassCPUBound, dvfs.SpeedStep1500, OutcomeHit, 10) // window 1000, slot 1
	a.IngestAt(0, 3000, 1, phase.ClassCPUBound, dvfs.SpeedStep1500, OutcomeHit, 10) // window 3000 maps to slot 1: unflushed window 1000 is reclaimed
	if got := dropped.Value(); got != 1 {
		t.Errorf("buckets_dropped = %d, want 1 (slot reclaimed by newer window)", got)
	}
	a.IngestAt(0, 2500, 1, phase.ClassCPUBound, dvfs.SpeedStep1500, OutcomeHit, 10) // window 2000, slot 0
	a.IngestAt(0, 900, 1, phase.ClassCPUBound, dvfs.SpeedStep1500, OutcomeHit, 10)  // window 0 maps to slot 0, now past: late
	if got := late.Value(); got != 1 {
		t.Errorf("late_samples = %d, want 1", got)
	}

	n := 0
	a.FlushAll(func(*wire.Rollup) { n++ })
	if n != 2 {
		t.Errorf("flushed %d buckets, want 2 (windows 3000 and 2000)", n)
	}
	if got := hub.Registry.Counter(telemetry.MetricAggRollups).Value(); got != 2 {
		t.Errorf("rollups counter = %d, want 2", got)
	}
	if got := hub.Registry.Counter(telemetry.MetricAggIngested).Value(); got != 4 {
		t.Errorf("ingested counter = %d, want 4", got)
	}
}

// synthView runs the canonical synthetic feed at the given shard and
// worker count and returns the merged view's JSON.
func synthView(t *testing.T, shards, workers int) []byte {
	t.Helper()
	s := Synth{Sessions: 500, Intervals: 40, Seed: 42}
	bucketLen := int64(10 * DefaultSynthIntervalNs)
	a := New(Config{
		NodeID:      1,
		Shards:      shards,
		BucketLenNs: bucketLen,
		NumBuckets:  s.SpanBuckets(bucketLen),
	})
	s.Run(a, workers)
	m := NewMerger(0)
	buf := make([]byte, 0, wire.MaxFrameSize)
	a.FlushAll(func(r *wire.Rollup) {
		// Round-trip through the wire encoding, as a real fleet would.
		buf = wire.AppendRollup(buf[:0], r)
		_, payload, err := wire.NewDecoder(newSliceReader(buf)).Next()
		if err != nil {
			t.Fatal(err)
		}
		var rr wire.Rollup
		if err := wire.DecodeRollup(payload, &rr); err != nil {
			t.Fatal(err)
		}
		m.Add(&rr)
	})
	out, err := json.Marshal(m.Snapshot(8))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sliceReader is bytes.Reader without the import.
type sliceReader struct{ b []byte }

func newSliceReader(b []byte) *sliceReader { return &sliceReader{b} }

func (r *sliceReader) Read(p []byte) (int, error) {
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestMergeShardInvariance is the pipeline's core determinism claim:
// the merged fleet view (down to its JSON bytes) is identical whether
// the same samples were accumulated on 1 shard or many, by 1 worker
// or many.
func TestMergeShardInvariance(t *testing.T) {
	want := synthView(t, 1, 1)
	for _, tc := range []struct{ shards, workers int }{
		{2, 1}, {4, 1}, {4, 4}, {7, 3}, {16, 8},
	} {
		got := synthView(t, tc.shards, tc.workers)
		if string(got) != string(want) {
			t.Errorf("view at shards=%d workers=%d differs from 1/1 baseline\n got: %s\nwant: %s",
				tc.shards, tc.workers, got, want)
		}
	}
}

// TestMergerTotalsMatchFeed cross-checks the merged totals against
// first principles: every served synthetic sample is accounted for
// exactly once.
func TestMergerTotalsMatchFeed(t *testing.T) {
	s := Synth{Sessions: 200, Intervals: 10, Seed: 7}
	bucketLen := int64(5 * DefaultSynthIntervalNs)
	a := New(Config{Shards: 3, BucketLenNs: bucketLen, NumBuckets: s.SpanBuckets(bucketLen)})
	s.Run(a, 2)
	m := NewMerger(0)
	a.FlushAll(func(r *wire.Rollup) { m.Add(r) })
	v := m.Snapshot(8)

	if v.Starts != 200 {
		t.Errorf("session starts = %d, want 200 (exactly one unscored sample per session)", v.Starts)
	}
	if v.Samples+v.Shed == 0 {
		t.Fatal("no samples merged")
	}
	if v.Samples != v.Hits+v.Misses+v.Starts {
		t.Errorf("samples=%d != hits=%d + misses=%d + unscored=%d", v.Samples, v.Hits, v.Misses, v.Starts)
	}
	if v.HitRate <= 0 || v.HitRate >= 1 {
		t.Errorf("hit rate = %v, want in (0, 1)", v.HitRate)
	}
	if v.PowerProxy <= 0 || v.PowerProxy > 1 {
		t.Errorf("power proxy = %v, want in (0, 1]", v.PowerProxy)
	}
	if m.Lanes() != 3 || v.Nodes != 1 {
		t.Errorf("lanes=%d nodes=%d, want 3 and 1", m.Lanes(), v.Nodes)
	}
	var classSum uint64
	for _, c := range v.Classes {
		classSum += c.Samples
	}
	if classSum != v.Samples {
		t.Errorf("class occupancy sums to %d, want %d", classSum, v.Samples)
	}
}

// TestBatchIngestEqualsSingle is the batch ingest's equivalence
// property: a seeded stream of random reply batches fed through
// IngestBatchAt flushes byte-identical Rollup frames, and leaves
// identical self-telemetry, to the same samples fed one at a time
// through IngestAt at the same instant and latency, each with the
// outcome the monitor scored: unscored under a pending phase.None, a
// hit when the pending prediction matched the reply's Actual, a miss
// otherwise, the next pending prediction being the reply's Next. The
// batches mix every served outcome, out-of-grid classes and settings
// (the cellFor clamp), session id 0 (the table's sentinel key),
// negative and overflow latencies, and instants that fall behind the
// ring (late) or jump past an unflushed window (lapped slot).
func TestBatchIngestEqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const (
		shards    = 3
		bucketLen = 1000
		ring      = 3
	)
	mk := func() (*Aggregator, *telemetry.Hub) {
		hub := telemetry.NewHub(6)
		return New(Config{NodeID: 4, Shards: shards, BucketLenNs: bucketLen, NumBuckets: ring, Telemetry: hub}), hub
	}
	batched, batchHub := mk()
	single, singleHub := mk()
	var gotBuf, wantBuf []byte
	flush := func(nowNs int64, all bool) {
		got, want := gotBuf[:0], wantBuf[:0]
		collect := func(dst *[]byte) func(*wire.Rollup) {
			return func(r *wire.Rollup) { *dst = wire.AppendRollup(*dst, r) }
		}
		if all {
			batched.FlushAll(collect(&got))
			single.FlushAll(collect(&want))
		} else {
			batched.FlushBefore(nowNs, collect(&got))
			single.FlushBefore(nowNs, collect(&want))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("flush at %d: batch ingest rollups (%d bytes) differ from single ingest (%d bytes)",
				nowNs, len(got), len(want))
		}
		gotBuf, wantBuf = got, want
	}

	var replies []wire.Prediction
	nowNs := int64(50_000)
	for batch := 0; batch < 3000; batch++ {
		switch r := rng.Intn(20); {
		case r == 0:
			nowNs -= int64(rng.Intn(6 * bucketLen)) // possibly behind the ring: late
		case r == 1:
			nowNs += int64(ring+rng.Intn(3)) * bucketLen // lands on an unflushed slot: lapped
		default:
			nowNs += int64(rng.Intn(bucketLen / 4))
		}
		shard := rng.Intn(shards)
		sid := uint64(rng.Intn(40))
		latNs := int64(rng.Intn(300_000)) - 1000 // negative through the overflow bucket
		replies = replies[:0]
		for n := 1 + rng.Intn(80); n > 0; n-- {
			replies = append(replies, wire.Prediction{
				Actual:  uint8(1 + rng.Intn(3)),
				Next:    uint8(rng.Intn(4)), // phase.None now and then
				Class:   uint8(rng.Intn(wire.RollupClasses + 3)),
				Setting: uint8(rng.Intn(256)),
			})
		}
		pending := phase.ID(rng.Intn(4))
		batched.IngestBatchAt(shard, nowNs, sid, replies, pending, latNs)
		for _, p := range replies {
			outcome := OutcomeMiss
			if pending == phase.None {
				outcome = OutcomeUnscored
			} else if pending == phase.ID(p.Actual) {
				outcome = OutcomeHit
			}
			single.IngestAt(shard, nowNs, sid, phase.Class(p.Class), dvfs.Setting(p.Setting), outcome, latNs)
			pending = phase.ID(p.Next)
		}
		if rng.Intn(25) == 0 {
			flush(nowNs-int64(rng.Intn(2*bucketLen)), false)
		}
	}
	flush(0, true)

	for _, name := range []string{telemetry.MetricAggIngested, telemetry.MetricAggLateSamples,
		telemetry.MetricAggBucketsDropped, telemetry.MetricAggRollups} {
		got, want := batchHub.Registry.Counter(name).Value(), singleHub.Registry.Counter(name).Value()
		if got != want {
			t.Errorf("%s = %d after batch ingest, %d after single ingest", name, got, want)
		}
	}
	late := singleHub.Registry.Counter(telemetry.MetricAggLateSamples).Value()
	lapped := singleHub.Registry.Counter(telemetry.MetricAggBucketsDropped).Value()
	if late == 0 || lapped == 0 {
		t.Errorf("stream exercised late=%d lapped=%d; want both paths covered", late, lapped)
	}
	if got := batchHub.Registry.Counter(telemetry.MetricAggRollups).Value(); got == 0 {
		t.Error("no rollups flushed")
	}
}

// TestIngestZeroAlloc proves the accumulate path allocates nothing in
// steady state, and the flush path allocates nothing once the encode
// buffer exists — the bounded-memory half of the acceptance bar.
func TestIngestZeroAlloc(t *testing.T) {
	a := New(Config{Shards: 2, BucketLenNs: 1_000_000, NumBuckets: 8})
	// Warm: first sight of each session grows the table once.
	for sid := uint64(1); sid <= 64; sid++ {
		a.IngestAt(0, 0, sid, phase.ClassBalanced, dvfs.SpeedStep1200, OutcomeUnscored, 10)
	}
	sid := uint64(0)
	if n := testing.AllocsPerRun(10_000, func() {
		sid = sid%64 + 1
		a.IngestAt(0, 500_000, sid, phase.ClassMemoryHeavy, dvfs.SpeedStep800, OutcomeHit, 1234)
	}); n != 0 {
		t.Errorf("ingest allocs/op = %v, want 0", n)
	}
	replies := make([]wire.Prediction, 64)
	for i := range replies {
		replies[i] = wire.Prediction{Actual: uint8(1 + i%3), Next: uint8(1 + i%2),
			Class: uint8(i % wire.RollupClasses), Setting: uint8(i % wire.RollupSettings)}
	}
	if n := testing.AllocsPerRun(10_000, func() {
		sid = sid%64 + 1
		a.IngestBatchAt(1, 500_000, sid, replies, 1, 1234)
	}); n != 0 {
		t.Errorf("batch ingest allocs/op = %v, want 0", n)
	}

	buf := make([]byte, 0, wire.MaxFrameSize)
	nowNs := int64(10_000_000)
	if n := testing.AllocsPerRun(100, func() {
		a.IngestAt(0, nowNs, 3, phase.ClassBalanced, dvfs.SpeedStep1200, OutcomeHit, 99)
		a.FlushBefore(nowNs+2_000_000, func(r *wire.Rollup) {
			buf = wire.AppendRollup(buf[:0], r)
		})
		nowNs += 1_000_000
	}); n != 0 {
		t.Errorf("flush allocs/op = %v, want 0", n)
	}
}

// TestMillionSessionsBoundedMemory is the acceptance-scale run: one
// million sessions' worth of synthetic per-interval samples through a
// fixed bucket ring on one box. The bucket count bounds live state;
// per-bucket session tables scale with distinct concurrent sessions,
// not with samples. (Kept to one interval per session so the -short
// suite stays fast; the shape, not the wall time, is what the ring
// bounds.)
func TestMillionSessionsBoundedMemory(t *testing.T) {
	sessions := 1_000_000
	if testing.Short() {
		sessions = 100_000
	}
	s := Synth{Sessions: sessions, Intervals: 1, Seed: 1}
	bucketLen := int64(DefaultSynthIntervalNs)
	a := New(Config{Shards: 8, BucketLenNs: bucketLen, NumBuckets: s.SpanBuckets(bucketLen)})
	s.Run(a, 8)

	m := NewMerger(0)
	a.FlushAll(func(r *wire.Rollup) { m.Add(r) })
	v := m.Snapshot(8)
	if v.Starts != uint64(sessions) {
		t.Errorf("session starts = %d, want %d", v.Starts, sessions)
	}
	if v.Samples < uint64(sessions) {
		t.Errorf("samples = %d, want >= %d", v.Samples, sessions)
	}
}

// TestSessTableExact proves the session table never approximates:
// counts survive growth and every session is retained.
func TestSessTableExact(t *testing.T) {
	var tab sessTable
	const n = 1000
	for round := 0; round < 3; round++ {
		for id := uint64(1); id <= n; id++ {
			tab.add(id, 1)
		}
	}
	tab.add(0, 1) // sentinel-key session
	if tab.n != n {
		t.Fatalf("table holds %d sessions, want %d", tab.n, n)
	}
	var top [wire.RollupTopK]wire.RollupTop
	tab.topK(&top)
	// All ids tie at count 3 except id 0 (count 1): ties break by
	// ascending id, so the list is ids 1..8.
	for i, got := range top {
		if got.SessionID != uint64(i+1) || got.Samples != 3 {
			t.Errorf("top[%d] = %+v, want id %d count 3", i, got, i+1)
		}
	}

	tab.reset()
	if tab.n != 0 || tab.zero != 0 {
		t.Errorf("reset left n=%d zero=%d", tab.n, tab.zero)
	}
	cap0 := len(tab.keys)
	for id := uint64(1); id <= n; id++ {
		tab.add(id, 1)
	}
	if len(tab.keys) != cap0 {
		t.Errorf("refill regrew table to %d slots from %d; capacity should be reused", len(tab.keys), cap0)
	}
}

// BenchmarkRollupIngest measures the accumulate hot path into a warm
// bucket, per sample: single is one IngestAt per sample (the shed path
// and perfbench's replay); batch64 is IngestBatchAt over one session's
// 64-sample batch, the served path of a phased worker. This is the
// per-sample overhead a phased worker pays to make the fleet
// observable.
func BenchmarkRollupIngest(b *testing.B) {
	warm := func() *Aggregator {
		a := New(Config{Shards: 1, BucketLenNs: int64(1e18), NumBuckets: 2})
		for sid := uint64(1); sid <= 256; sid++ {
			a.IngestAt(0, 0, sid, phase.ClassBalanced, dvfs.SpeedStep1200, OutcomeUnscored, 10)
		}
		return a
	}
	b.Run("single", func(b *testing.B) {
		a := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sid := uint64(i)%256 + 1
			a.IngestAt(0, 1000, sid, phase.ClassMemoryHeavy, dvfs.SpeedStep800, OutcomeHit, 1234)
		}
	})
	b.Run("batch64", func(b *testing.B) {
		a := warm()
		// Every reply a hit: Actual is the pending prediction, and
		// Next predicts the same phase again.
		replies := make([]wire.Prediction, 64)
		for i := range replies {
			replies[i] = wire.Prediction{Actual: 3, Next: 3,
				Class: uint8(phase.ClassMemoryHeavy), Setting: uint8(dvfs.SpeedStep800)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(replies) {
			sid := uint64(i/len(replies))%256 + 1
			a.IngestBatchAt(0, 1000, sid, replies[:min(len(replies), b.N-i)], 3, 1234)
		}
	})
}
