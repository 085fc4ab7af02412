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
// are built by newSession, exactly as the server builds them: bare
// serves unobserved, hub serves with a telemetry hub as cmd/phased
// always does (step counters, gauges, accuracy matrix and journal):
// each step records into a worker-style StepBatch that is published,
// and the hub clock read, once per 64 samples, as a worker does once
// per session batch. Both step one warm session; interleaved steps as
// a busy server does (benchmarkInterleaved).
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
			smp := wire.Sample{SessionID: 1, Uops: 100e6, Cycles: 90e6}
			var p wire.Prediction
			tel := bc.hub.NewStepBatch()
			var nowNs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 {
					nowNs = srv.clock().UnixNano()
				}
				smp.Seq = uint64(i)
				smp.MemTx = uint64(i%7) * 1e6
				_ = sess.step(&smp, &p, 0, tel, nowNs)
				if i%64 == 63 {
					tel.Publish()
				}
			}
			tel.Publish()
		})
	}
}

// benchmarkInterleaved is SessionStep as a loaded server runs it: 128
// gpht_8_128 sessions, each replaying the recorded counters of a
// monitor-only governed run of applu_in, gzip_graphic, swim_in or
// mcf_inp (the workloads phasefeed -check replays), step 64-sample
// batches in turn through one worker StepBatch, published once per
// batch. Every session's tables compete for the cache, as they do in
// phased; one warm-up round fills them before timing starts.
func benchmarkInterleaved(b *testing.B) {
	const (
		sessions  = 128
		batch     = 64
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
		cur[k] = (k / len(traces)) * batch % intervals
	}
	tel := hub.NewStepBatch()
	var (
		nowNs int64
		p     wire.Prediction
	)
	step := func(i int) {
		if i%batch == 0 {
			nowNs = srv.clock().UnixNano()
		}
		k := i / batch % sessions
		tr := traces[k%len(traces)]
		_ = sess[k].step(&tr[cur[k]], &p, 0, tel, nowNs)
		if cur[k]++; cur[k] == len(tr) {
			cur[k] = 0
		}
		if i%batch == batch-1 {
			tel.Publish()
		}
	}
	for i := 0; i < sessions*batch; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	tel.Publish()
}
