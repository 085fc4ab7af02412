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
// per session batch.
func BenchmarkSessionStep(b *testing.B) {
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
				_, _ = sess.step(&smp, 0, tel, nowNs)
				if i%64 == 63 {
					tel.Publish()
				}
			}
			tel.Publish()
		})
	}
}
