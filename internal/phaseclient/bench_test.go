package phaseclient

import (
	"context"
	"testing"

	"phasemon/internal/wire"
)

// BenchmarkReplyPath is the client's per-reply cost under the `stream`
// workload's frame shape: one reply frame of 348 replies in 6 runs of
// 58, one run per session (the server writes each session batch
// contiguously), demuxed into the sessions' queues and then received
// one Recv at a time. One op is one reply.
func BenchmarkReplyPath(b *testing.B) {
	const runs, runLen = 6, 58
	c := New(Config{Addr: "127.0.0.1:0"})
	var sess [runs]*Session
	var batch []wire.Prediction
	for r := range sess {
		sess[r] = register(c, uint64(100+r))
		batch = append(batch, replies(sess[r].id, 0, runLen)...)
	}
	frame, err := wire.AppendBatchPredictions(nil, batch)
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[wire.HeaderSize : len(frame)-wire.TrailerSize]
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % (runs * runLen)
		if k == 0 {
			if err := c.demux(wire.KindBatch, payload); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sess[k/runLen].Recv(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
