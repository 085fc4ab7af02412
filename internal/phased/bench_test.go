package phased

import (
	"testing"

	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// BenchmarkSessionStep measures the pure per-sample compute of the
// serving path — counter arithmetic, monitor step, classification,
// translation, prediction assembly — with the transport excluded.
// Together with BenchmarkWireRoundTrip it bounds the server's
// per-sample CPU cost; the steady state must not allocate. Sessions
// are built by newSession, exactly as the server builds them, and
// served 64 samples at a time through worker.serve, the worker's own
// batch step, with the hub clock read once per batch as a worker does:
// bare serves unobserved (the bare steps alone), hub serves with a
// telemetry hub as cmd/phased always does, so each batch's replies are
// also folded once into the worker's StepBatch (step counters, gauges,
// accuracy matrix and journal) and published. Both step one warm
// session; interleaved steps as a busy server does
// (benchmarkInterleaved).
func BenchmarkSessionStep(b *testing.B) {
	b.Run("interleaved", benchmarkInterleaved)
	for _, bc := range []struct {
		name string
		hub  *telemetry.Hub
	}{
		{"bare", nil},
		{"hub", telemetry.NewHub(6)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := New(Config{Telemetry: bc.hub})
			if err != nil {
				b.Fatal(err)
			}
			sess, _, err := srv.newSession(nil, 1, []byte("gpht_8_128"), nil)
			if err != nil {
				b.Fatal(err)
			}
			// Mem/Uop cycles with period 7 across batches: 7 batches of
			// 64 samples repeat the pattern exactly.
			smps := make([]wire.Sample, 7*batchLen)
			for i := range smps {
				smps[i] = wire.Sample{SessionID: 1, Seq: uint64(i), Uops: 100e6, MemTx: uint64(i%7) * 1e6, Cycles: 90e6}
			}
			preds := make([]wire.Prediction, batchLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batchLen {
				n := min(batchLen, b.N-i)
				off := i % len(smps)
				sess.w.serve(sess, preds[:n], smps[off:off+n], nil, 0, srv.clock().UnixNano())
			}
		})
	}
}

// batchLen is the session batch the benchmarks serve.
const batchLen = 64

// benchmarkInterleaved is SessionStep as a loaded server runs it: 128
// gpht_8_128 sessions, each replaying the recorded counters of a
// monitor-only governed run of applu_in, gzip_graphic, swim_in or
// mcf_inp (the workloads phasefeed -check replays), are served in
// 64-sample batches in turn through worker.serve, each batch folded
// into the worker's StepBatch and published once. Every session's
// tables compete for the cache, as they do in phased; one warm-up
// round fills them before timing starts.
func benchmarkInterleaved(b *testing.B) {
	const (
		sessions  = 128
		intervals = 2048
	)
	var traces [][]wire.Sample
	for _, name := range []string{"applu_in", "gzip_graphic", "swim_in", "mcf_inp"} {
		var tr []wire.Sample
		for i, e := range localRun(b, "gpht_8_128", name, intervals) {
			tr = append(tr, wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles})
		}
		traces = append(traces, tr)
	}
	hub := telemetry.NewHub(6)
	srv, err := New(Config{Telemetry: hub})
	if err != nil {
		b.Fatal(err)
	}
	sess := make([]*session, sessions)
	cur := make([]int, sessions)
	for k := range sess {
		if sess[k], _, err = srv.newSession(nil, uint64(k+1), []byte("gpht_8_128"), nil); err != nil {
			b.Fatal(err)
		}
		// Sessions replaying one workload start a batch apart.
		cur[k] = (k / len(traces)) * batchLen % intervals
	}
	preds := make([]wire.Prediction, batchLen)
	// serve steps n samples of the next session in turn; a batch never
	// wraps its trace, since batchLen divides the trace length.
	next := 0
	serve := func(n int) {
		k := next
		next = (next + 1) % sessions
		tr := traces[k%len(traces)]
		sess[k].w.serve(sess[k], preds[:n], tr[cur[k]:cur[k]+n], nil, 0, srv.clock().UnixNano())
		if cur[k] += n; cur[k] == len(tr) {
			cur[k] = 0
		}
	}
	for k := 0; k < sessions; k++ {
		serve(batchLen)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchLen {
		serve(min(batchLen, b.N-i))
	}
}
