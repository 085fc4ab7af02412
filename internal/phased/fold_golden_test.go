package phased

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// servedFoldRun serves the telStreams sessions through a real server
// over one raw connection, closed loop: session s's batch b of k
// samples goes out as one Batch frame while the hub clock reads
// telStamp(s, b), and the next frame waits for every reply, so each
// worker batch is exactly one frame. It returns the text of everything
// the served run left in the hub and the rollup pipeline, latency
// aside: counters, confusion, Mem/Uop buckets and sum (bit pattern),
// gauges, the journal, and every rollup bucket flushed at the end.
func servedFoldRun(t *testing.T, k int) string {
	t.Helper()
	const sessions, samples = 6, 150
	streams := telStreams(sessions, samples)
	var now atomic.Int64
	hub := telemetry.NewHub(phase.Default().NumPhases(), telemetry.WithClock(func() time.Time { return time.Unix(0, now.Load()) }))
	srv, addr, _ := startServer(t, Config{Telemetry: hub, Workers: 2, QueueDepth: 64, RollupFlush: time.Hour})
	c := dialRaw(t, addr)
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	dec := wire.NewDecoder(c)
	var buf []byte
	for s := 0; s < sessions; s++ {
		buf = appendHello(t, buf[:0], &wire.Hello{SessionID: uint64(s + 1), Spec: []byte(telSpecs[s%len(telSpecs)])})
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if kind, _, err := dec.Next(); err != nil || kind != wire.KindAck {
			t.Fatalf("handshake %d: (%v, %v)", s, kind, err)
		}
	}
	var preds []wire.Prediction
	for _, sb := range batchOrder(sessions, samples, k, func(int) bool { return true }) {
		s, b := sb[0], sb[1]
		batch := streams[s][b*k : min((b+1)*k, samples)]
		now.Store(telStamp(s, b))
		buf = appendSamples(t, buf[:0], batch...)
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		preds = preds[:0]
		for len(preds) < len(batch) {
			preds = nextPredictions(t, dec, preds)
		}
	}
	// Replies can reach the client before their batch's rollup ingest.
	awaitCounter(t, hub.Registry.Counter(telemetry.MetricAggIngested), sessions*samples, "agg ingested")

	var out bytes.Buffer
	for _, c := range []struct {
		name string
		c    *telemetry.Counter
	}{
		{"steps", hub.Steps},
		{"mispredictions", hub.Mispredictions},
		{"transitions", hub.PhaseTransitions},
		{"gpht_hits", hub.GPHTHits},
		{"gpht_misses", hub.GPHTMisses},
	} {
		fmt.Fprintf(&out, "%s %d\n", c.name, c.c.Value())
	}
	fmt.Fprintf(&out, "confusion %v\n", hub.Accuracy().Confusion)
	m := hub.MemPerUop.Snapshot()
	fmt.Fprintf(&out, "mem_buckets %v\nmem_sum %#x\n", m.Counts, math.Float64bits(m.Sum))
	fmt.Fprintf(&out, "gauges current=%v predicted=%v\n", hub.CurrentPhase.Value(), hub.PredictedPhase.Value())
	fmt.Fprintf(&out, "journal dropped=%d\n", hub.Journal.Dropped())
	for _, e := range hub.Journal.Recent(0) {
		fmt.Fprintf(&out, "event %+v\n", e)
	}
	srv.agg.FlushAll(func(r *wire.Rollup) {
		fmt.Fprintf(&out, "rollup node=%d shard=%d start=%d len=%d starts=%d shed=%d\n samples=%v\n hits=%v\n misses=%v\n top=%v\n",
			r.NodeID, r.Shard, r.BucketStart, r.BucketLenNs, r.Starts, r.Shed, r.Samples, r.Hits, r.Misses, r.Top)
	})
	return out.String()
}

// TestServedFoldMatchesGolden pins, byte for byte, what a served
// multi-session run leaves in the hub and the rollups at batches of 1,
// 7 and 64. The golden was recorded from the per-step accounting the
// one-fold-per-batch path replaced.
func TestServedFoldMatchesGolden(t *testing.T) {
	for _, k := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("batch%d", k), func(t *testing.T) {
			got := servedFoldRun(t, k)
			path := filepath.Join("testdata", fmt.Sprintf("served-fold-batch%d.golden", k))
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("served run drifted from %s:\n--- got ---\n%s", path, got)
			}
		})
	}
}
