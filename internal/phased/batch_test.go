package phased

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"phasemon/internal/phaseclient"
	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// TestBatchedBitIdentityMixedClients streams the same workload through
// a client sending batches of one and a client sending batches of 64
// concurrently, against one server: both prediction streams must be
// bit-identical to the local governed run. Batch size changes framing
// and write scheduling, never results.
func TestBatchedBitIdentityMixedClients(t *testing.T) {
	const spec = "gpht_8_128"
	want := localRun(t, spec, "mcf_inp", 600)
	_, addr, hub := startServer(t, Config{QueueDepth: 1024})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	run := func(t *testing.T, id uint64, batch int) {
		cl := phaseclient.New(phaseclient.Config{Addr: addr, BatchSize: batch})
		defer cl.Close()
		sess, _, err := cl.Open(ctx, id, spec, 100e6)
		if err != nil {
			t.Errorf("session %d open: %v", id, err)
			return
		}
		go func() {
			for i, e := range want {
				_ = sess.Send(wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles})
			}
		}()
		for i, e := range want {
			p, err := sess.Recv(ctx)
			if err != nil {
				t.Errorf("session %d recv #%d: %v", id, i, err)
				return
			}
			if p.Seq != uint64(i) {
				t.Errorf("session %d prediction #%d out of order: seq %d", id, i, p.Seq)
				return
			}
			if p.Actual != uint8(e.Actual) || p.Next != uint8(e.Predicted) {
				t.Errorf("session %d prediction #%d diverged: got actual=%d next=%d, local run had actual=%d predicted=%d",
					id, i, p.Actual, p.Next, e.Actual, e.Predicted)
				return
			}
			if p.Dropped != 0 {
				t.Errorf("session %d prediction #%d reports %d drops on an unloaded loopback", id, i, p.Dropped)
				return
			}
		}
		d, err := sess.Drain(ctx)
		if err != nil {
			t.Errorf("session %d drain: %v", id, err)
			return
		}
		if d.LastSeq != uint64(len(want)-1) {
			t.Errorf("session %d drain LastSeq = %d, want %d", id, d.LastSeq, len(want)-1)
		}
	}

	var wg sync.WaitGroup
	for _, c := range []struct {
		id    uint64
		batch int
	}{{1, 64}, {2, 1}} {
		wg.Add(1)
		go func(id uint64, batch int) {
			defer wg.Done()
			run(t, id, batch)
		}(c.id, c.batch)
	}
	wg.Wait()

	if n := hub.PhasedProtocolErrors.Value(); n != 0 {
		t.Errorf("protocol errors = %d, want 0", n)
	}
	if n := hub.PhasedFlushes.Value(); n == 0 {
		t.Error("coalescer flush counter = 0 after two sessions; replies never went through it")
	}
}

// TestBatchedDrainResumeMigration re-proves the migration tentpole with
// batching on both sides of the drain: a batched resumable session
// streams half the workload, the server is killed, and a batched client
// resumes from the snapshot on a fresh server — the stitched stream
// must stay bit-identical.
func TestBatchedDrainResumeMigration(t *testing.T) {
	const spec = "gpht_8_128"
	want := localRun(t, spec, "mcf_inp", 400)
	half := len(want) / 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	srvA, addrA, _ := startServer(t, Config{Workers: 3, QueueDepth: 1024})
	clA := phaseclient.New(phaseclient.Config{Addr: addrA, BatchSize: 32})
	defer clA.Close()
	sess, _, err := clA.OpenResumable(ctx, 11, spec, 100e6)
	if err != nil {
		t.Fatalf("OpenResumable: %v", err)
	}
	for i := 0; i < half; i++ {
		e := want[i]
		if err := sess.Send(wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles}); err != nil {
			t.Fatalf("Send #%d: %v", i, err)
		}
	}
	for i := 0; i < half; i++ {
		p, err := sess.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv #%d: %v", i, err)
		}
		if p.Seq != uint64(i) || p.Actual != uint8(want[i].Actual) || p.Next != uint8(want[i].Predicted) {
			t.Fatalf("pre-drain prediction #%d diverged", i)
		}
	}

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := srvA.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-sess.Drained()
	snap, ok := sess.Snapshot()
	if !ok {
		t.Fatal("no snapshot after server drain of a resumable batched session")
	}
	if last := decodeSnap(t, snap).LastSeq; last != uint64(half-1) {
		t.Fatalf("snapshot LastSeq = %d, want %d", last, half-1)
	}

	_, addrB, hubB := startServer(t, Config{Workers: 2, QueueDepth: 1024})
	clB := phaseclient.New(phaseclient.Config{Addr: addrB, BatchSize: 32})
	defer clB.Close()
	resumed, _, err := clB.Resume(ctx, snap)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	for i := half; i < len(want); i++ {
		e := want[i]
		if err := resumed.Send(wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles}); err != nil {
			t.Fatalf("Send #%d: %v", i, err)
		}
	}
	for i := half; i < len(want); i++ {
		p, err := resumed.Recv(ctx)
		if err != nil {
			t.Fatalf("post-resume Recv #%d: %v", i, err)
		}
		if p.Seq != uint64(i) {
			t.Fatalf("post-resume prediction #%d out of order: seq %d", i, p.Seq)
		}
		if p.Actual != uint8(want[i].Actual) || p.Next != uint8(want[i].Predicted) {
			t.Fatalf("post-resume prediction #%d diverged: got actual=%d next=%d, uninterrupted run had actual=%d predicted=%d",
				i, p.Actual, p.Next, want[i].Actual, want[i].Predicted)
		}
	}
	d, err := resumed.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if d.LastSeq != uint64(len(want)-1) {
		t.Fatalf("Drain.LastSeq = %d, want %d", d.LastSeq, len(want)-1)
	}
	if n := hubB.PhasedProtocolErrors.Value(); n != 0 {
		t.Fatalf("server B protocol errors = %d, want 0", n)
	}
	if n := hubB.PhasedFlushes.Value(); n == 0 {
		t.Fatal("server B never flushed a reply batch")
	}
}

// discardConn is a net.Conn that swallows writes; it gives the
// coalescer's allocation test a real write path with no peer.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)        { return len(p), nil }
func (discardConn) SetWriteDeadline(t time.Time) error { return nil }
func (discardConn) Close() error                       { return nil }

// TestCoalescerFlushZeroAlloc is the steady-state allocation witness
// for the server's write coalescer: with the buffers newServerConn
// sized, handing over session batches of predictions and flushing —
// full batches on the size threshold, including one crossed in the
// middle of a handed-over batch, and partial ones when settle retires
// the last in-flight sample; encode, writev, telemetry — must not
// allocate.
func TestCoalescerFlushZeroAlloc(t *testing.T) {
	hub := telemetry.NewHub(6)
	srv, err := New(Config{
		Telemetry: hub,
		// One flush per 8 predictions; the hour-long interval keeps the
		// timer armed but silent, so the async callback can never smear
		// background allocations into AllocsPerRun's accounting.
		FlushBytes:    8 * wire.PredictionRecordSize,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := newServerConn(srv, discardConn{})

	// Two session batches per fill: 5 then 6 predictions, so the size
	// threshold (8) is crossed inside the second hand-over and 3
	// replies are left for the settle flush.
	ps := make([]wire.Prediction, srv.flushThreshold+3)
	for i := range ps {
		ps[i] = wire.Prediction{SessionID: 9, Seq: uint64(i), Actual: 2, Next: 3, Class: 1, Setting: 4}
	}
	fills := 0
	fill := func() {
		fills++
		n := len(ps)
		sc.inflight.Add(int64(n))
		for _, part := range [][]wire.Prediction{ps[:5], ps[5:]} {
			if err := sc.writePredictions(part, 1); err != nil {
				t.Fatalf("writePredictions: %v", err)
			}
		}
		if err := sc.settle(n); err != nil {
			t.Fatalf("settle: %v", err)
		}
	}
	fill() // warm up lazily-grown internals
	if got := testing.AllocsPerRun(200, fill); got != 0 {
		t.Fatalf("coalescer buffer+flush allocates %v times per full batch, want 0", got)
	}
	if n, want := hub.PhasedFlushes.Value(), uint64(2*fills); n != want {
		t.Fatalf("flush counter = %d, want %d: a threshold and a settle flush per fill", n, want)
	}
	if got, want := hub.PhasedFlushFrames.Snapshot().Sum, float64(fills*len(ps)); got != want {
		t.Fatalf("flushed %v predictions over %d fills, want %v", got, fills, want)
	}
}

// BenchmarkSamplesPerSecPerCore measures end-to-end serving throughput
// on one loopback connection — the headline the batched protocol buys.
// Samples stream open-loop; the benchmark ends when the final sequence
// number is answered (drop-oldest guarantees it is). The samples/s and
// samples/s/core metrics are the bench-json suite's regression gauge.
func BenchmarkSamplesPerSecPerCore(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch int
	}{
		{"batch1", 1},
		{"batched", wire.MaxBatchSamples},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := New(Config{Workers: 4, QueueDepth: 1 << 15})
			if err != nil {
				b.Fatal(err)
			}
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = srv.Shutdown(ctx)
			}()
			cl := phaseclient.New(phaseclient.Config{Addr: addr.String(), BatchSize: bc.batch})
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			sess, _, err := cl.Open(ctx, 1, "lastvalue", 100e6)
			if err != nil {
				b.Fatal(err)
			}

			seq := uint64(0)
			stream := func(n int) {
				done := make(chan struct{})
				last := seq + uint64(n) - 1
				go func() {
					defer close(done)
					for i := 0; i < n; i++ {
						if err := sess.Send(wire.Sample{Seq: seq, Uops: 1e8, Cycles: 9e7, MemTx: seq % 17}); err != nil {
							b.Errorf("Send: %v", err)
							return
						}
						seq++
					}
				}()
				for {
					p, err := sess.Recv(ctx)
					if err != nil {
						b.Fatalf("Recv: %v", err)
					}
					if p.Seq == last {
						break
					}
				}
				<-done
			}

			stream(2000) // warm the path: buffers sized
			b.ReportAllocs()
			b.ResetTimer()
			stream(b.N)
			b.StopTimer()
			rate := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "samples/s")
			b.ReportMetric(rate/float64(runtime.GOMAXPROCS(0)), "samples/s/core")
		})
	}
}
