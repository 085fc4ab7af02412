package phased

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/phase"
	"phasemon/internal/phaseclient"
	"phasemon/internal/telemetry"
	"phasemon/internal/wcache"
	"phasemon/internal/wire"
	"phasemon/internal/workload"
)

// startServer builds and starts a server on a loopback port, returning
// it, its address, and its hub. The server is shut down at test end.
func startServer(t *testing.T, cfg Config) (*Server, string, *telemetry.Hub) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewHub(6)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, addr.String(), cfg.Telemetry
}

// localRun executes the workload locally under a monitoring-only
// policy and returns the governed run's kernel log: the raw counters
// to stream and the predictions a bit-identical server must reproduce.
func localRun(t testing.TB, spec, profileName string, intervals int) []struct {
	Uops, MemTx, Cycles uint64
	Actual, Predicted   phase.ID
} {
	t.Helper()
	prof, err := workload.ByName(profileName)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	trace := wcache.New(wcache.Config{}).Get(prof, workload.Params{Seed: 7, Intervals: intervals})
	pol, err := governor.PolicyFromSpec(governor.MonitorPrefix + spec)
	if err != nil {
		t.Fatalf("PolicyFromSpec: %v", err)
	}
	res, err := governor.Run(trace.Generator(), pol, governor.Config{})
	if err != nil {
		t.Fatalf("governor.Run: %v", err)
	}
	out := make([]struct {
		Uops, MemTx, Cycles uint64
		Actual, Predicted   phase.ID
	}, len(res.Log))
	for i, e := range res.Log {
		out[i].Uops, out[i].MemTx, out[i].Cycles = e.Uops, e.MemTx, e.Cycles
		out[i].Actual, out[i].Predicted = e.Actual, e.Predicted
	}
	return out
}

// TestLoopbackDeterminism is the tentpole property: a session streamed
// over TCP must produce, bit for bit, the same actual/predicted phase
// sequence as a local simulated run of the same spec over the same
// counters — and the DVFS settings the Table 2 translation assigns.
func TestLoopbackDeterminism(t *testing.T) {
	trans, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"gpht_8_128", "fixwindow_128_majority"} {
		t.Run(spec, func(t *testing.T) {
			want := localRun(t, spec, "mcf_inp", 600)
			// The queue must hold the whole stream: an eviction would
			// (by design) break bit-identity, and this test sends far
			// faster than the worker drains.
			_, addr, hub := startServer(t, Config{QueueDepth: 1024})
			cl := phaseclient.New(phaseclient.Config{Addr: addr})
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			sess, numPhases, err := cl.Open(ctx, 42, spec, 100e6)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if numPhases != 6 {
				t.Fatalf("Ack.NumPhases = %d, want 6", numPhases)
			}
			go func() {
				for i, e := range want {
					_ = sess.Send(wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles})
				}
			}()
			for i, e := range want {
				p, err := sess.Recv(ctx)
				if err != nil {
					t.Fatalf("Recv #%d: %v", i, err)
				}
				if p.Seq != uint64(i) {
					t.Fatalf("prediction #%d out of order: seq %d", i, p.Seq)
				}
				if p.Actual != uint8(e.Actual) || p.Next != uint8(e.Predicted) {
					t.Fatalf("prediction #%d diverged: got actual=%d next=%d, local run had actual=%d predicted=%d",
						i, p.Actual, p.Next, e.Actual, e.Predicted)
				}
				if want := uint8(trans.Setting(e.Predicted)); p.Setting != want {
					t.Fatalf("prediction #%d setting = %d, want %d", i, p.Setting, want)
				}
				if want := uint8(phase.ClassOf(e.Predicted, 6)); p.Class != want {
					t.Fatalf("prediction #%d class = %d, want %d", i, p.Class, want)
				}
				if p.Dropped != 0 {
					t.Fatalf("prediction #%d reports %d drops on an unloaded loopback", i, p.Dropped)
				}
			}
			d, err := sess.Drain(ctx)
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if d.LastSeq != uint64(len(want)-1) {
				t.Fatalf("Drain.LastSeq = %d, want %d", d.LastSeq, len(want)-1)
			}
			if n := hub.PhasedProtocolErrors.Value(); n != 0 {
				t.Fatalf("protocol errors = %d, want 0", n)
			}
		})
	}
}

// TestConcurrentSessionsSoak runs 64 concurrent sessions spread over 8
// connections under -race: every session must get every prediction, in
// order, and drain cleanly.
func TestConcurrentSessionsSoak(t *testing.T) {
	const (
		conns            = 8
		sessionsPerConn  = 8
		samplesPerStream = 200
	)
	srv, addr, hub := startServer(t, Config{Workers: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, conns*sessionsPerConn)
	for c := 0; c < conns; c++ {
		cl := phaseclient.New(phaseclient.Config{Addr: addr})
		defer cl.Close()
		for k := 0; k < sessionsPerConn; k++ {
			id := uint64(c*sessionsPerConn + k + 1)
			wg.Add(1)
			go func(cl *phaseclient.Client, id uint64) {
				defer wg.Done()
				sess, _, err := cl.Open(ctx, id, "gpht_8_128", 100e6)
				if err != nil {
					errs <- fmt.Errorf("session %d open: %w", id, err)
					return
				}
				for i := 0; i < samplesPerStream; i++ {
					if err := sess.Send(wire.Sample{
						Seq:    uint64(i),
						Uops:   100e6,
						MemTx:  uint64(id*1000) * uint64(i%7),
						Cycles: 80e6 + uint64(i%13)*1e6,
					}); err != nil {
						errs <- fmt.Errorf("session %d send #%d: %w", id, i, err)
						return
					}
				}
				// The burst may overrun the bounded queue; drop-oldest
				// keeps the tail, so the final sample always survives
				// and predictions + echoed drops account for the burst.
				d, err := sess.Drain(ctx)
				if err != nil {
					errs <- fmt.Errorf("session %d drain: %w", id, err)
					return
				}
				if d.LastSeq != samplesPerStream-1 {
					errs <- fmt.Errorf("session %d drain LastSeq = %d, want %d", id, d.LastSeq, samplesPerStream-1)
					return
				}
				var preds int
				var last wire.Prediction
				lastSeq := int64(-1)
				for sess.Pending() > 0 {
					p, err := sess.Recv(ctx)
					if err != nil {
						errs <- fmt.Errorf("session %d recv: %w", id, err)
						return
					}
					if int64(p.Seq) <= lastSeq {
						errs <- fmt.Errorf("session %d prediction seq %d after %d; must be increasing", id, p.Seq, lastSeq)
						return
					}
					lastSeq = int64(p.Seq)
					preds++
					last = p
				}
				if preds == 0 {
					errs <- fmt.Errorf("session %d got no predictions", id)
					return
				}
				if uint64(preds)+last.Dropped != samplesPerStream {
					errs <- fmt.Errorf("session %d: predictions (%d) + drops (%d) != samples (%d)",
						id, preds, last.Dropped, samplesPerStream)
				}
			}(cl, id)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := hub.PhasedProtocolErrors.Value(); n != 0 {
		t.Errorf("protocol errors = %d, want 0", n)
	}
	if got := hub.PhasedSessions.Value(); got != 0 {
		t.Errorf("sessions gauge = %v after all drains, want 0", got)
	}
	assertSettled(t, srv)
}

// TestGracefulShutdownDrainsSessions: a server-side Shutdown must
// flush queued samples, send every open session an unsolicited Drain,
// and only then close connections.
func TestGracefulShutdownDrainsSessions(t *testing.T) {
	srv, addr, _ := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cl := phaseclient.New(phaseclient.Config{Addr: addr})
	defer cl.Close()

	sess, _, err := cl.Open(ctx, 7, "lastvalue", 100e6)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := sess.Send(wire.Sample{Seq: uint64(i), Uops: 100e6, Cycles: 90e6}); err != nil {
			t.Fatalf("Send #%d: %v", i, err)
		}
	}
	// Consume everything so the server-side flush isn't throttled by
	// our receive window, then shut down.
	for i := 0; i < n; i++ {
		if _, err := sess.Recv(ctx); err != nil {
			t.Fatalf("Recv #%d: %v", i, err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case d := <-sess.Drained():
		if d.LastSeq != n-1 {
			t.Fatalf("server drain LastSeq = %d, want %d", d.LastSeq, n-1)
		}
	case <-ctx.Done():
		t.Fatal("no Drain frame arrived after Shutdown")
	}
	// The listener is gone: a fresh bounded dial must fail.
	nc := phaseclient.New(phaseclient.Config{
		Addr: addr, MaxAttempts: 2,
		BackoffBase: 5 * time.Millisecond, DialTimeout: time.Second,
	})
	defer nc.Close()
	if _, _, err := nc.Open(ctx, 8, "lastvalue", 100e6); err == nil {
		t.Fatal("Open succeeded against a shut-down server")
	}
}

// dialRaw opens a raw TCP connection for protocol-abuse tests.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// appendHello encodes a Hello, failing the test on the (here
// impossible) oversize-spec error.
func appendHello(t *testing.T, dst []byte, h *wire.Hello) []byte {
	t.Helper()
	buf, err := wire.AppendHello(dst, h)
	if err != nil {
		t.Fatalf("AppendHello: %v", err)
	}
	return buf
}

// appendSamples encodes smps as one Batch frame, failing the test on
// the (here impossible) batch-bounds error.
func appendSamples(t *testing.T, dst []byte, smps ...wire.Sample) []byte {
	t.Helper()
	buf, err := wire.AppendBatchSamples(dst, smps)
	if err != nil {
		t.Fatalf("AppendBatchSamples: %v", err)
	}
	return buf
}

// nextPredictions reads the next frame, which must be a prediction
// Batch, and returns its records appended to dst.
func nextPredictions(t *testing.T, dec *wire.Decoder, dst []wire.Prediction) []wire.Prediction {
	t.Helper()
	kind, payload, err := dec.Next()
	if err != nil {
		t.Fatalf("read predictions: %v", err)
	}
	if kind != wire.KindBatch {
		t.Fatalf("got %v frame, want a prediction batch", kind)
	}
	return decodePredictions(t, payload, dst)
}

// decodePredictions returns the records of a prediction Batch payload
// appended to dst.
func decodePredictions(t *testing.T, payload []byte, dst []wire.Prediction) []wire.Prediction {
	t.Helper()
	elem, n, recs, err := wire.DecodeBatch(payload)
	if err != nil || elem != wire.KindPrediction {
		t.Fatalf("DecodeBatch: %v batch, %v", elem, err)
	}
	for i := 0; i < n; i++ {
		var p wire.Prediction
		if err := wire.DecodePrediction(recs[i*wire.PredictionRecordSize:(i+1)*wire.PredictionRecordSize], &p); err != nil {
			t.Fatal(err)
		}
		dst = append(dst, p)
	}
	return dst
}

// assertSettled checks that no connection still counts a sample in
// flight once every sample sent has been answered or shed: a leaked
// count would hold every later reply until the flush timer.
func assertSettled(t *testing.T, srv *Server) {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for sc := range srv.conns {
		if n := sc.inflight.Load(); n != 0 {
			t.Errorf("connection still counts %d samples in flight after every sample was answered or shed", n)
		}
	}
}

// awaitCounter polls a telemetry counter until it reaches want.
func awaitCounter(t *testing.T, c *telemetry.Counter, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Value() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s = %d, want >= %d", what, c.Value(), want)
}

// TestMalformedFrameRejected: garbage bytes draw an Error frame with
// CodeBadFrame and the connection is closed.
func TestMalformedFrameRejected(t *testing.T) {
	_, addr, hub := startServer(t, Config{})
	c := dialRaw(t, addr)
	if _, err := c.Write([]byte("this is not a frame, not even close")); err != nil {
		t.Fatalf("write: %v", err)
	}
	dec := wire.NewDecoder(c)
	kind, payload, err := dec.Next()
	if err != nil {
		t.Fatalf("expected an Error frame before close, got %v", err)
	}
	if kind != wire.KindError {
		t.Fatalf("got %v frame, want KindError", kind)
	}
	var e wire.ErrorFrame
	if err := wire.DecodeError(payload, &e); err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if e.Code != wire.CodeBadFrame {
		t.Fatalf("error code = %v, want CodeBadFrame", e.Code)
	}
	if _, _, err := dec.Next(); err == nil {
		t.Fatal("connection still open after protocol violation")
	}
	awaitCounter(t, hub.PhasedProtocolErrors, 1, "protocol error counter")
}

// TestVersionMismatchAnswersCodeVersion: a frame header carrying any
// older protocol version — here a Hello of every version from 1 to
// wire.Version-1 — is answered with CodeVersion, not the generic
// CodeBadFrame, and closes the connection.
func TestVersionMismatchAnswersCodeVersion(t *testing.T) {
	_, addr, hub := startServer(t, Config{})
	for v := uint8(1); v < wire.Version; v++ {
		c := dialRaw(t, addr)
		hello := appendHello(t, nil, &wire.Hello{SessionID: 1, Spec: []byte("lastvalue")})
		hello[2] = v
		if _, err := c.Write(hello); err != nil {
			t.Fatal(err)
		}
		dec := wire.NewDecoder(c)
		expectError(t, dec, wire.CodeVersion)
		if _, _, err := dec.Next(); err == nil {
			t.Fatalf("connection still open after a version-%d Hello", v)
		}
		awaitCounter(t, hub.PhasedProtocolErrors, uint64(v), "protocol error counter")
	}
}

// TestStandaloneSampleRejected: samples travel only inside Batch
// frames, so a standalone Sample frame — even for an open session — is
// an unexpected frame and closes the connection.
func TestStandaloneSampleRejected(t *testing.T) {
	_, addr, _ := startServer(t, Config{})
	c := dialRaw(t, addr)
	dec := wire.NewDecoder(c)
	if _, err := c.Write(appendHello(t, nil, &wire.Hello{SessionID: 1, Spec: []byte("lastvalue")})); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := dec.Next(); err != nil || kind != wire.KindAck {
		t.Fatalf("handshake: (%v, %v)", kind, err)
	}
	if _, err := c.Write(wire.AppendSample(nil, &wire.Sample{SessionID: 1, Uops: 1e8, Cycles: 9e7})); err != nil {
		t.Fatal(err)
	}
	expectError(t, dec, wire.CodeBadFrame)
	if _, _, err := dec.Next(); err == nil {
		t.Fatal("connection still open after a standalone Sample frame")
	}
}

// TestOneAtATimeRepliesPromptly: a client that sends one sample and
// waits for its answer before the next leaves the server nothing else
// in flight, so each reply must flush at once rather than wait out the
// coalescing timer — set here to an hour, so only the in-flight flush
// can answer within the test's deadline. Two sessions share the
// connection, so the count spans sessions.
func TestOneAtATimeRepliesPromptly(t *testing.T) {
	_, addr, hub := startServer(t, Config{FlushInterval: time.Hour})
	c := dialRaw(t, addr)
	dec := wire.NewDecoder(c)
	var buf []byte
	for id := uint64(1); id <= 2; id++ {
		buf = appendHello(t, buf[:0], &wire.Hello{SessionID: id, Spec: []byte("gpht_8_128")})
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if kind, _, err := dec.Next(); err != nil || kind != wire.KindAck {
			t.Fatalf("handshake %d: (%v, %v)", id, kind, err)
		}
	}
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var preds []wire.Prediction
	for i := 0; i < 40; i++ {
		id := uint64(1 + i%2)
		seq := uint64(i / 2)
		buf = appendSamples(t, buf[:0], wire.Sample{SessionID: id, Seq: seq, Uops: 1e8, MemTx: uint64(i%5) * 1e6, Cycles: 9e7})
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		preds = nextPredictions(t, dec, preds[:0])
		if len(preds) != 1 || preds[0].SessionID != id || preds[0].Seq != seq {
			t.Fatalf("sample %d of session %d answered with %+v, want its one prediction", seq, id, preds)
		}
		// The worker publishes a batch's telemetry before handing its
		// replies over: a reply's step is already counted.
		if got := hub.Steps.Value(); got != uint64(i+1) {
			t.Fatalf("after reply %d the hub counts %d steps, want %d", i, got, i+1)
		}
	}
}

// TestShortReadCountsProtocolError: a frame truncated mid-payload by a
// dying client is a protocol error, not a crash and not a clean EOF.
func TestShortReadCountsProtocolError(t *testing.T) {
	_, addr, hub := startServer(t, Config{})
	c := dialRaw(t, addr)
	full := appendHello(t, nil, &wire.Hello{SessionID: 1, GranularityUops: 100e6, Spec: []byte("gpht_8_128")})
	if _, err := c.Write(full[:len(full)-5]); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = c.Close()
	awaitCounter(t, hub.PhasedProtocolErrors, 1, "protocol error counter")
}

// TestUnknownSessionAndBadSpecSurvivable: addressing a session that
// does not exist, or negotiating an unknown predictor spec, draws an
// Error frame but keeps the connection usable.
func TestUnknownSessionAndBadSpecSurvivable(t *testing.T) {
	_, addr, _ := startServer(t, Config{})
	c := dialRaw(t, addr)
	dec := wire.NewDecoder(c)

	// Sample for a session that was never opened.
	buf := appendSamples(t, nil, wire.Sample{SessionID: 99, Uops: 1, Cycles: 1})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	expectError(t, dec, wire.CodeUnknownSession)

	// A spec the registry rejects.
	buf = appendHello(t, buf[:0], &wire.Hello{SessionID: 1, Spec: []byte("no_such_predictor")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	expectError(t, dec, wire.CodeBadSpec)

	// The connection still negotiates a real session afterward.
	buf = appendHello(t, buf[:0], &wire.Hello{SessionID: 1, Spec: []byte("lastvalue")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := dec.Next()
	if err != nil || kind != wire.KindAck {
		t.Fatalf("after recoverable errors: got (%v, %v), want an Ack", kind, err)
	}
	var a wire.Ack
	if err := wire.DecodeAck(payload, &a); err != nil || a.SessionID != 1 {
		t.Fatalf("bad Ack: %+v, %v", a, err)
	}
}

// TestBatchFrameMixedRecords drives handleBatch's per-frame grouping
// with one Batch frame whose records interleave two open sessions
// pinned to different workers, an unknown session, and a session in
// the middle of draining. Each open session's replies must come back
// complete and in order, each unknown record must draw exactly one
// CodeUnknownSession Error, the draining session's records must be
// dropped silently, and the in-flight count must settle. The
// coalescing timer is an hour, so the replies can only arrive through
// the in-flight flush: a record left unsettled would hang the read.
//
// A second frame then exercises the ring hand-off while a worker is
// stepping a session's previous ring: records for the two open sessions
// on their two workers, an unknown id, and more records for one session
// than QueueDepth, so drop-oldest fires inside the frame. The Dropped
// echoes, the shed rollup count, the Error frames, the per-session
// order and the settled in-flight count must be exactly those of
// pop-all queues.
func TestBatchFrameMixedRecords(t *testing.T) {
	// The hub clock is fixed, so no rollup bucket ever closes and the
	// test can read every shed count back with FlushAll; it can also be
	// armed to hold the next caller — a worker starting a batch — until
	// released.
	var (
		armed   atomic.Bool
		entered = make(chan struct{})
		release = make(chan struct{})
	)
	clock := func() time.Time {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return time.Unix(1_000_000, 0)
	}
	const depth = 8
	srv, addr, hub := startServer(t, Config{Workers: 4, QueueDepth: depth, FlushInterval: time.Hour,
		RollupFlush: time.Hour, Telemetry: telemetry.NewHub(6, telemetry.WithClock(clock))})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock) // before the server's shutdown, should the test fail mid-batch

	var ids []uint64 // two open sessions and a draining one, on three workers
	onWorker := map[int]bool{}
	for id := uint64(1); len(ids) < 3; id++ {
		if w := srv.agg.ShardFor(id); !onWorker[w] {
			onWorker[w] = true
			ids = append(ids, id)
		}
	}
	const unknownID = 1 << 40
	c := dialRaw(t, addr)
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	dec := wire.NewDecoder(c)
	var buf []byte
	for _, id := range ids {
		buf = appendHello(t, buf[:0], &wire.Hello{SessionID: id, Spec: []byte("gpht_8_128")})
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if kind, _, err := dec.Next(); err != nil || kind != wire.KindAck {
			t.Fatalf("handshake %d: (%v, %v)", id, kind, err)
		}
	}
	srv.mu.Lock()
	sessA, sessB, sessD := srv.sessions[ids[0]], srv.sessions[ids[1]], srv.sessions[ids[2]]
	srv.mu.Unlock()
	for _, sess := range []*session{sessA, sessB, sessD} {
		if sess.w.idx != srv.agg.ShardFor(sess.id) {
			t.Fatalf("session %d pinned to worker %d, its agg shard is %d", sess.id, sess.w.idx, srv.agg.ShardFor(sess.id))
		}
	}
	// Hold the third session where a worker leaves a draining session
	// while it flushes: draining, but not yet closed and unregistered.
	sessD.w.mu.Lock()
	sessD.draining = true
	sessD.state = StateDraining
	sessD.w.mu.Unlock()

	a, b, d := ids[0], ids[1], ids[2]
	order := []uint64{a, b, unknownID, d, a, a, unknownID, b, d, a, b, unknownID, b, a, b}
	var smps []wire.Sample
	next := map[uint64]uint64{}
	for i, id := range order {
		smps = append(smps, wire.Sample{SessionID: id, Seq: next[id], Uops: 1e8, MemTx: uint64(i%5) * 1e6, Cycles: 9e7})
		next[id]++
	}
	buf = appendSamples(t, buf[:0], smps...)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}

	got := map[uint64][]uint64{}
	answered, errs := 0, 0
	for answered < int(next[a]+next[b]) || errs < int(next[unknownID]) {
		kind, payload, err := dec.Next()
		if err != nil {
			t.Fatalf("after %d replies and %d errors: %v", answered, errs, err)
		}
		switch kind {
		case wire.KindError:
			var e wire.ErrorFrame
			if err := wire.DecodeError(payload, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != wire.CodeUnknownSession || e.SessionID != unknownID {
				t.Fatalf("error %v for session %d, want CodeUnknownSession for %d", e.Code, e.SessionID, uint64(unknownID))
			}
			errs++
		case wire.KindBatch:
			elem, n, recs, err := wire.DecodeBatch(payload)
			if err != nil || elem != wire.KindPrediction {
				t.Fatalf("DecodeBatch: %v batch, %v", elem, err)
			}
			for i := 0; i < n; i++ {
				var p wire.Prediction
				if err := wire.DecodePrediction(recs[i*wire.PredictionRecordSize:(i+1)*wire.PredictionRecordSize], &p); err != nil {
					t.Fatal(err)
				}
				got[p.SessionID] = append(got[p.SessionID], p.Seq)
				answered++
			}
		default:
			t.Fatalf("unexpected %v frame", kind)
		}
	}
	if errs != int(next[unknownID]) {
		t.Fatalf("%d CodeUnknownSession errors, want one per unknown record (%d)", errs, next[unknownID])
	}
	for _, id := range []uint64{a, b} {
		if len(got[id]) != int(next[id]) {
			t.Fatalf("session %d: %d replies, want %d", id, len(got[id]), next[id])
		}
		for i, seq := range got[id] {
			if seq != uint64(i) {
				t.Fatalf("session %d replies out of order: %v", id, got[id])
			}
		}
	}
	if len(got[d]) != 0 {
		t.Fatalf("draining session %d answered %v; its late records must be dropped", d, got[d])
	}
	assertSettled(t, srv)
	if n := hub.PhasedProtocolErrors.Value(); n != next[unknownID] {
		t.Errorf("protocol errors = %d, want %d", n, next[unknownID])
	}
	// Per-batch bookkeeping keeps per-sample counts exact.
	if n := hub.PhasedFrameSeconds.Snapshot().Count; n != uint64(answered) {
		t.Errorf("frame_seconds count = %d, want one per answered sample (%d)", n, answered)
	}
	if n := hub.Registry.Counter(telemetry.MetricAggIngested).Value(); n != uint64(answered) {
		t.Errorf("agg ingested = %d, want %d", n, answered)
	}

	// Let the worker finish the drain: the session closes with a Drain
	// that reports no samples processed.
	sessD.w.mu.Lock()
	sessD.w.scheduleLocked(sessD)
	sessD.w.mu.Unlock()
	kind, payload, err := dec.Next()
	if err != nil || kind != wire.KindDrain {
		t.Fatalf("after release: (%v, %v), want the draining session's Drain", kind, err)
	}
	var dr wire.Drain
	if err := wire.DecodeDrain(payload, &dr); err != nil || dr.SessionID != d || dr.LastSeq != wire.NoSamples {
		t.Fatalf("Drain = %+v (%v), want session %d with no samples", dr, err, d)
	}

	// Every reply of the first frame is out, so no clock read is
	// pending: the next one is the worker starting session a's batch.
	armed.Store(true)
	const held = 3
	var smpsA []wire.Sample
	for i := 0; i < held; i++ {
		smpsA = append(smpsA, wire.Sample{SessionID: a, Seq: next[a], Uops: 1e8, MemTx: 2e6, Cycles: 9e7})
		next[a]++
	}
	buf = appendSamples(t, buf[:0], smpsA...)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	<-entered // a's worker holds its previous ring, mid-batch

	// The second frame: a overflows its fresh ring by evict records.
	const evict = 3
	firstA := next[a]
	smps = smps[:0]
	for i, id := range []uint64{a, a, b, unknownID, a, a, a, b, a, unknownID, a, a, a, b, a, a} {
		smps = append(smps, wire.Sample{SessionID: id, Seq: next[id], Uops: 1e8, MemTx: uint64(i%5) * 1e6, Cycles: 9e7})
		next[id]++
	}
	if n := next[a] - firstA; n != depth+evict {
		t.Fatalf("frame holds %d records for session a, want %d", n, depth+evict)
	}
	errsBefore := hub.PhasedProtocolErrors.Value()
	buf = appendSamples(t, buf[:0], smps...)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	awaitCounter(t, hub.PhasedDroppedSamples, evict, "evictions inside the frame")
	unblock()

	type reply struct{ seq, dropped uint64 }
	replies := map[uint64][]reply{}
	answered, errs = 0, 0
	for answered < held+depth+3 || errs < 2 {
		kind, payload, err := dec.Next()
		if err != nil {
			t.Fatalf("after %d replies and %d errors: %v", answered, errs, err)
		}
		switch kind {
		case wire.KindError:
			var e wire.ErrorFrame
			if err := wire.DecodeError(payload, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != wire.CodeUnknownSession || e.SessionID != unknownID {
				t.Fatalf("error %v for session %d, want CodeUnknownSession for %d", e.Code, e.SessionID, uint64(unknownID))
			}
			errs++
		case wire.KindBatch:
			for _, p := range decodePredictions(t, payload, nil) {
				replies[p.SessionID] = append(replies[p.SessionID], reply{p.Seq, p.Dropped})
				answered++
			}
		default:
			t.Fatalf("unexpected %v frame", kind)
		}
	}
	// a: its held batch, stepped before the frame's evictions were
	// counted, then the frame's newest depth records, echoing them.
	var want []reply
	for seq := firstA - held; seq < firstA; seq++ {
		want = append(want, reply{seq, 0})
	}
	for seq := firstA + evict; seq < next[a]; seq++ {
		want = append(want, reply{seq, evict})
	}
	if !slices.Equal(replies[a], want) {
		t.Errorf("session a replies (seq, dropped) = %v, want %v", replies[a], want)
	}
	if want := []reply{{next[b] - 3, 0}, {next[b] - 2, 0}, {next[b] - 1, 0}}; !slices.Equal(replies[b], want) {
		t.Errorf("session b replies (seq, dropped) = %v, want %v", replies[b], want)
	}
	if n := hub.PhasedProtocolErrors.Value() - errsBefore; n != 2 {
		t.Errorf("second frame drew %d protocol errors, want 2", n)
	}
	assertSettled(t, srv)
	var shed uint64
	srv.agg.FlushAll(func(r *wire.Rollup) { shed += r.Shed })
	if shed != evict {
		t.Errorf("rollup shed = %d, want %d", shed, evict)
	}
}

// TestDuplicateSessionRejected: one session id cannot be claimed twice
// while open, and becomes claimable again after a drain.
func TestDuplicateSessionRejected(t *testing.T) {
	_, addr, _ := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl := phaseclient.New(phaseclient.Config{Addr: addr})
	defer cl.Close()
	sess, _, err := cl.Open(ctx, 5, "lastvalue", 100e6)
	if err != nil {
		t.Fatal(err)
	}

	c := dialRaw(t, addr)
	dec := wire.NewDecoder(c)
	buf := appendHello(t, nil, &wire.Hello{SessionID: 5, Spec: []byte("lastvalue")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	expectError(t, dec, wire.CodeDuplicateSession)

	if _, err := sess.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	kind, _, err := dec.Next()
	if err != nil || kind != wire.KindAck {
		t.Fatalf("reclaiming a drained session id: got (%v, %v), want an Ack", kind, err)
	}
}

// TestPerIPSessionCap: the cap bounds concurrent sessions per client
// address.
func TestPerIPSessionCap(t *testing.T) {
	_, addr, _ := startServer(t, Config{MaxSessionsPerIP: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl := phaseclient.New(phaseclient.Config{Addr: addr})
	defer cl.Close()
	for id := uint64(1); id <= 2; id++ {
		if _, _, err := cl.Open(ctx, id, "lastvalue", 100e6); err != nil {
			t.Fatalf("Open #%d: %v", id, err)
		}
	}
	_, _, err := cl.Open(ctx, 3, "lastvalue", 100e6)
	var serr *phaseclient.ServerError
	if !errors.As(err, &serr) || serr.Code != wire.CodeSessionLimit {
		t.Fatalf("third session: got %v, want CodeSessionLimit server error", err)
	}
}

func expectError(t *testing.T, dec *wire.Decoder, code wire.ErrorCode) {
	t.Helper()
	kind, payload, err := dec.Next()
	if err != nil {
		t.Fatalf("expected Error frame, got %v", err)
	}
	if kind != wire.KindError {
		t.Fatalf("got %v frame, want KindError", kind)
	}
	var e wire.ErrorFrame
	if err := wire.DecodeError(payload, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != code {
		t.Fatalf("error code = %v, want %v", e.Code, code)
	}
}

// pipeListener turns pre-created net.Pipe server halves into a
// net.Listener, so backpressure tests get an unbuffered transport with
// fully deterministic blocking.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, 8), done: make(chan struct{})}
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestSlowClientDisconnected: a client that stops reading predictions
// stalls the worker's write; the write deadline must cut the
// connection loose rather than wedge the worker forever.
func TestSlowClientDisconnected(t *testing.T) {
	hub := telemetry.NewHub(6)
	srv, err := New(Config{WriteTimeout: 50 * time.Millisecond, Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	c := ln.dial()
	defer c.Close()
	dec := wire.NewDecoder(c)
	buf := appendHello(t, nil, &wire.Hello{SessionID: 1, Spec: []byte("lastvalue")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := dec.Next(); err != nil || kind != wire.KindAck {
		t.Fatalf("handshake: (%v, %v)", kind, err)
	}
	// One sample, then never read: the pipe is unbuffered, so the
	// prediction write blocks immediately and the deadline fires.
	buf = appendSamples(t, buf[:0], wire.Sample{SessionID: 1, Seq: 0, Uops: 1e8, Cycles: 9e7})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	// Crucially, do NOT read: the prediction write stays blocked until
	// the write deadline fires and the server reaps the session.
	ok := false
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		if hub.PhasedSessions.Value() == 0 {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("sessions gauge = %v, want 0 after slow-client disconnect", hub.PhasedSessions.Value())
	}
	// And the server closed the transport out from under us.
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	one := make([]byte, 1)
	if _, err := io.ReadFull(c, one); err == nil {
		t.Fatal("connection still delivering data after slow-client disconnect")
	}
}

// TestBackpressureDropsOldest: with an unbuffered transport and a tiny
// queue, a burst overruns the session queue; the drop-oldest policy
// must evict, count, and echo the evictions, and flushed samples plus
// drops must account for every sample sent.
func TestBackpressureDropsOldest(t *testing.T) {
	hub := telemetry.NewHub(6)
	srv, err := New(Config{QueueDepth: 4, WriteTimeout: 30 * time.Second, Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	c := ln.dial()
	defer c.Close()
	dec := wire.NewDecoder(c)
	buf := appendHello(t, nil, &wire.Hello{SessionID: 1, Spec: []byte("lastvalue")})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := dec.Next(); err != nil || kind != wire.KindAck {
		t.Fatalf("handshake: (%v, %v)", kind, err)
	}

	// Write a burst of batches of one without reading: the worker
	// blocks on its first reply flush (unbuffered pipe), so the queue
	// must overflow.
	const burst = 20
	for i := 0; i < burst; i++ {
		buf = appendSamples(t, buf[:0], wire.Sample{SessionID: 1, Seq: uint64(i), Uops: 1e8, Cycles: 9e7})
		if _, err := c.Write(buf); err != nil {
			t.Fatalf("sample #%d: %v", i, err)
		}
	}
	buf = wire.AppendDrain(buf[:0], &wire.Drain{SessionID: 1})
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}

	// Now read everything back.
	var preds int
	var lastDropped uint64
	for {
		kind, payload, err := dec.Next()
		if err != nil {
			t.Fatalf("read-back: %v (after %d predictions)", err, preds)
		}
		if kind == wire.KindDrain {
			break
		}
		if kind != wire.KindBatch {
			t.Fatalf("unexpected %v frame", kind)
		}
		elem, n, recs, err := wire.DecodeBatch(payload)
		if err != nil || elem != wire.KindPrediction {
			t.Fatalf("DecodeBatch: %v batch, %v", elem, err)
		}
		var p wire.Prediction
		if err := wire.DecodePrediction(recs[(n-1)*wire.PredictionRecordSize:], &p); err != nil {
			t.Fatal(err)
		}
		preds += n
		lastDropped = p.Dropped
	}
	if lastDropped == 0 {
		t.Fatal("no drops recorded despite a 20-sample burst into a depth-4 queue")
	}
	if uint64(preds)+lastDropped != burst {
		t.Fatalf("predictions (%d) + drops (%d) != samples sent (%d)", preds, lastDropped, burst)
	}
	if got := hub.PhasedDroppedSamples.Value(); got != lastDropped {
		t.Fatalf("drop counter = %d, echoed drops = %d; must agree", got, lastDropped)
	}
	assertSettled(t, srv)
}

// TestSessionStateStrings pins the SessionState taxonomy.
func TestSessionStateStrings(t *testing.T) {
	want := map[SessionState]string{
		StateNegotiating: "negotiating",
		StateOpen:        "open",
		StateDraining:    "draining",
		StateClosed:      "closed",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
		if !s.Valid() {
			t.Errorf("%v.Valid() = false", s)
		}
	}
	if bogus := SessionState(99); bogus.Valid() || bogus.String() == "" {
		t.Error("SessionState(99) must be invalid but printable")
	}
}

// TestSampleRingDropOldest pins the eviction policy at the unit level,
// and the worker's view of a wrapped ring: its two segments hold the
// survivors oldest first, and a drained ring refills from empty.
func TestSampleRingDropOldest(t *testing.T) {
	r := newSampleRing(3)
	var dropped int
	for i := 0; i < 5; i++ {
		slot, d := r.pushSlot()
		*slot = wire.Sample{Seq: uint64(i)}
		dropped += d
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	seqs := func() []uint64 {
		var got []uint64
		first, wrapped := r.segments()
		for _, s := range append(first, wrapped...) {
			got = append(got, s.Seq)
		}
		return got
	}
	if got := seqs(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("surviving seqs = %v, want [2 3 4] (oldest evicted first)", got)
	}
	if first, wrapped := r.segments(); len(first) != 1 || len(wrapped) != 2 {
		t.Fatalf("segments of a wrapped ring = %d + %d samples, want 1 + 2", len(first), len(wrapped))
	}
	r = sampleRing{buf: r.buf}
	if got := seqs(); len(got) != 0 {
		t.Fatalf("drained ring holds %v", got)
	}
	slot, d := r.pushSlot()
	*slot = wire.Sample{Seq: 9}
	if got := seqs(); d != 0 || len(got) != 1 || got[0] != 9 {
		t.Fatalf("after draining and one push: seqs %v, dropped %d", got, d)
	}
}

// TestDrainerRunsOnceInOrder covers the process-level drain helper.
func TestDrainerRunsOnceInOrder(t *testing.T) {
	var order []string
	mk := func(name string, err error) Drainable {
		return DrainFunc(func(ctx context.Context) error {
			order = append(order, name)
			return err
		})
	}
	boom := errors.New("boom")
	d := NewDrainer(time.Second, mk("a", nil), nil, mk("b", boom))
	if err := d.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain err = %v, want boom", err)
	}
	if err := d.Drain(); !errors.Is(err, boom) {
		t.Fatalf("second Drain err = %v, want cached boom", err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("drain order = %v, want [a b] exactly once", order)
	}
}

// TestReadTimeoutClosesIdleConn: ReadTimeout bounds the gap between
// reads whatever the decoder holds — nothing, or part of a frame it
// read ahead — so a client that goes quiet is disconnected.
func TestReadTimeoutClosesIdleConn(t *testing.T) {
	_, addr, _ := startServer(t, Config{ReadTimeout: 100 * time.Millisecond})
	for _, tc := range []struct {
		name string
		send func(c net.Conn) error
	}{
		{"silent", func(net.Conn) error { return nil }},
		{"mid-frame", func(c net.Conn) error {
			frames := appendHello(t, nil, &wire.Hello{SessionID: 1, GranularityUops: 1e8, Spec: []byte("gpht_8_128")})
			batch := appendSamples(t, nil, wire.Sample{SessionID: 1, Uops: 1e8, Cycles: 9e7})
			_, err := c.Write(append(frames, batch[:len(batch)/2]...))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialRaw(t, addr)
			if err := tc.send(c); err != nil {
				t.Fatal(err)
			}
			_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
			start := time.Now()
			if _, err := io.Copy(io.Discard, c); err != nil {
				t.Fatalf("idle connection not closed by the server: %v", err)
			}
			// The server armed its deadline just before start; half
			// the timeout is a safe lower bound.
			if waited := time.Since(start); waited < 50*time.Millisecond {
				t.Errorf("closed after %v, well before the 100ms read timeout", waited)
			}
		})
	}
}
