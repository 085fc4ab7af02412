// Package phased is the streaming phase-prediction service: the
// repo's monitoring stack (classifier, predictors, DVFS translation)
// served over a TCP wire protocol instead of linked into the
// workload's process.
//
// Each connection carries one or more sessions. A session opens with a
// Hello frame naming a predictor spec (core.PredictorSpec grammar,
// optionally with governor's "mon:" prefix) and the sampling
// granularity; the server builds that predictor, answers with an Ack,
// and from then on every sample (raw PMC counters for one interval:
// uops, memory transactions, cycles, wall time) is answered by a
// prediction carrying the classified actual phase, the predicted next
// phase, its phase.Class, and the DVFS setting the paper's Table 2
// translation assigns it. Both travel packed in Batch frames; a single
// sample is a batch of one. The monitor is fed through the kernel
// module's own counter conversion (phase.FromCounters), so a streamed
// session is bit-identical to a local simulated run over the same
// counters — the property the loopback tests and cmd/phasefeed -check
// enforce.
//
// Scheduling mirrors the fleet engine's determinism discipline:
// sessions are pinned to a fixed worker pool by FNV-1a hash of the
// session id, so one session's samples are always processed in order
// by one goroutine. Backpressure is bounded per-session queues with a
// drop-oldest policy (the freshest window of samples survives; the
// cumulative eviction count rides on every Prediction), read deadlines
// bound idle connections, write deadlines disconnect clients too slow
// to take their predictions, and per-IP session caps bound fan-in.
// Shutdown drains: queued samples flush, every open session gets a
// Drain frame, then connections close.
package phased

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"phasemon/internal/agg"
	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// Config parameterizes a Server. The zero value is fully usable.
type Config struct {
	// NodeID identifies this node in the Rollup frames it emits; a
	// fleet's phasetop merges streams from many nodes by this id.
	NodeID uint64
	// Workers is the prediction worker pool size; sessions are pinned
	// to workers by session-id hash. Zero selects 4.
	Workers int
	// QueueDepth bounds each session's pending-sample queue; overflow
	// evicts the oldest sample (drop-oldest). Zero selects 64.
	QueueDepth int
	// MaxSessionsPerIP caps concurrent sessions per client IP. Zero
	// selects 64; negative means unlimited.
	MaxSessionsPerIP int
	// ReadTimeout bounds the gap between reads on a connection; idle
	// connections past it are closed. Zero selects 30s; negative
	// disables the deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write; clients too slow to drain
	// their predictions are disconnected. Zero selects 5s; negative
	// disables the deadline.
	WriteTimeout time.Duration
	// FlushInterval bounds how long a connection's write coalescer may
	// hold a buffered prediction while other samples on the connection
	// are still in flight; a connection with nothing left in flight
	// flushes at once. Non-positive selects 500µs.
	FlushInterval time.Duration
	// FlushBytes is the coalescer's size threshold: a pending reply
	// batch whose encoded size reaches it flushes without waiting for
	// the interval. Zero selects 32 KiB; the effective threshold is
	// clamped to one wire.MaxPayload batch frame.
	FlushBytes int
	// RollupBucket is the rollup pipeline's time-bucket length: every
	// served, shed, or dropped sample is accumulated into the bucket
	// covering its instant. Zero selects 1s.
	RollupBucket time.Duration
	// RollupFlush is the period of the flusher that emits closed
	// buckets as Rollup frames (to subscribers and the node's own
	// merged /rollup view). Zero selects 1s.
	RollupFlush time.Duration
	// Telemetry observes the server when non-nil (the phasemon_phased_*
	// instrument family plus the per-session monitors' accuracy
	// counters). Nil serves unobserved.
	Telemetry *telemetry.Hub
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxSessionsPerIP == 0 {
		c.MaxSessionsPerIP = 64
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 500 * time.Microsecond
	}
	if c.FlushBytes <= 0 {
		c.FlushBytes = 32 << 10
	}
	if c.RollupBucket <= 0 {
		c.RollupBucket = time.Duration(agg.DefaultBucketLenNs)
	}
	if c.RollupFlush <= 0 {
		c.RollupFlush = time.Second
	}
	return c
}

// Server is the phase-prediction service. Construct with New, start
// with Start or Serve, stop with Shutdown (it implements Drainable).
type Server struct {
	cfg   Config
	trans *dvfs.Translation
	clock telemetry.Clock
	// flushThreshold is FlushBytes expressed in predictions per batch,
	// clamped to one frame; precomputed so the coalescer's hot path is
	// a single integer compare.
	flushThreshold int

	workers []*worker
	wg      sync.WaitGroup // worker goroutines
	connWG  sync.WaitGroup // per-connection reader goroutines

	// Rollup pipeline: workers ingest per-sample outcomes into agg
	// (one shard per worker), the flusher goroutine periodically emits
	// closed buckets as Rollup frames to subscribed connections and
	// folds them into merger, the node's own fleet view (/rollup).
	agg     *agg.Aggregator
	merger  *agg.Merger
	scratch []wire.Rollup // flusher-owned copy-out buffer

	mu         sync.Mutex
	ln         net.Listener             // guarded by mu
	conns      map[*serverConn]struct{} // guarded by mu
	sessions   map[uint64]*session      // guarded by mu
	perIP      map[string]int           // guarded by mu
	rollupSubs map[*serverConn]struct{} // guarded by mu
	draining   bool                     // guarded by mu
	closed     bool                     // guarded by mu

	flusherStarted bool // guarded by mu
	flusherStop    chan struct{}
	flusherDone    chan struct{}
	flusherOnce    sync.Once

	// Telemetry instruments, captured once at construction; nil (and
	// therefore no-op) when the server runs unobserved.
	sessionsGauge *telemetry.Gauge
	framesIn      *telemetry.Counter
	framesOut     *telemetry.Counter
	drops         *telemetry.Counter
	protoErrs     *telemetry.Counter
	flushes       *telemetry.Counter
	frameSeconds  *telemetry.Histogram
	flushFrames   *telemetry.Histogram
	flushSeconds  *telemetry.Histogram
}

// New validates the configuration and builds a stopped server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	trans, err := dvfs.Identity(dvfs.PentiumM(), phase.Default().NumPhases())
	if err != nil {
		return nil, fmt.Errorf("phased: %w", err)
	}
	s := &Server{
		cfg:        cfg,
		trans:      trans,
		clock:      cfg.Telemetry.Clock(),
		conns:      make(map[*serverConn]struct{}),
		sessions:   make(map[uint64]*session),
		perIP:      make(map[string]int),
		rollupSubs: make(map[*serverConn]struct{}),
		merger:     agg.NewMerger(0),

		flusherStop: make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	s.agg = agg.New(agg.Config{
		NodeID:      cfg.NodeID,
		Shards:      cfg.Workers,
		BucketLenNs: cfg.RollupBucket.Nanoseconds(),
		Telemetry:   cfg.Telemetry,
	})
	if tel := cfg.Telemetry; tel != nil {
		s.sessionsGauge = tel.PhasedSessions
		s.framesIn = tel.PhasedFramesIn
		s.framesOut = tel.PhasedFramesOut
		s.drops = tel.PhasedDroppedSamples
		s.protoErrs = tel.PhasedProtocolErrors
		s.flushes = tel.PhasedFlushes
		s.frameSeconds = tel.PhasedFrameSeconds
		s.flushFrames = tel.PhasedFlushFrames
		s.flushSeconds = tel.PhasedFlushSeconds
	}
	s.flushThreshold = cfg.FlushBytes / wire.PredictionRecordSize
	if s.flushThreshold < 1 {
		s.flushThreshold = 1
	}
	if s.flushThreshold > wire.MaxBatchPredictions {
		s.flushThreshold = wire.MaxBatchPredictions
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{srv: s, idx: i, spare: newSampleRing(cfg.QueueDepth),
			tel: cfg.Telemetry.NewStepBatch()}
		w.cond = sync.NewCond(&w.mu)
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// Start listens on addr (e.g. "127.0.0.1:0"), serves in a background
// goroutine, and returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = s.Serve(ln) }()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil after a graceful shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("phased: server is shut down")
	}
	s.ln = ln
	s.startWorkersLocked()
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining || s.closed
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		// Nagle's algorithm would add its own delay on top of the
		// coalescer's explicit FlushInterval budget; disable it so the
		// only write latency is the one we account for.
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		sc := newServerConn(s, c)
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[sc] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.readLoop(sc)
	}
}

// startWorkersLocked launches the worker pool and the rollup flusher
// once; callers hold s.mu.
func (s *Server) startWorkersLocked() {
	for _, w := range s.workers {
		if w.started {
			continue
		}
		w.started = true
		s.wg.Add(1)
		go func(w *worker) {
			defer s.wg.Done()
			w.run()
		}(w)
	}
	if !s.flusherStarted {
		s.flusherStarted = true
		go s.runFlusher()
	}
}

// runFlusher periodically emits closed rollup buckets until stopped.
func (s *Server) runFlusher() {
	defer close(s.flusherDone)
	tick := time.NewTicker(s.cfg.RollupFlush)
	defer tick.Stop()
	for {
		select {
		case <-s.flusherStop:
			return
		case <-tick.C:
			s.flushRollups(false)
		}
	}
}

// stopFlusher halts the periodic flusher and waits for it, so the
// final FlushAll never races the ticker on the copy-out buffer.
func (s *Server) stopFlusher() {
	s.mu.Lock()
	started := s.flusherStarted
	s.mu.Unlock()
	s.flusherOnce.Do(func() { close(s.flusherStop) })
	if started {
		<-s.flusherDone
	}
}

// flushRollups drains closed buckets (every bucket when final), folds
// them into the node's merged view, and pushes each as a Rollup frame
// to every subscribed connection. Buckets are copied out of the flush
// callback first: it runs under the shard lock, and a slow
// subscriber's write must never stall ingest.
func (s *Server) flushRollups(final bool) {
	s.scratch = s.scratch[:0]
	collect := func(r *wire.Rollup) { s.scratch = append(s.scratch, *r) }
	if final {
		s.agg.FlushAll(collect)
	} else {
		s.agg.FlushBefore(s.clock().UnixNano(), collect)
	}
	if len(s.scratch) == 0 {
		return
	}
	s.mu.Lock()
	subs := make([]*serverConn, 0, len(s.rollupSubs))
	for sc := range s.rollupSubs {
		subs = append(subs, sc)
	}
	s.mu.Unlock()
	for i := range s.scratch {
		r := &s.scratch[i]
		s.merger.Add(r)
		for _, sc := range subs {
			if err := sc.writeRollup(r); err != nil {
				s.dropConn(sc)
			}
		}
	}
}

// Shutdown gracefully drains the server: stop accepting, flush every
// session's queued samples, send each a Drain frame, then close all
// connections and stop the workers. It implements Drainable. A second
// call returns immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	ln := s.ln
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()

	if ln != nil {
		_ = ln.Close()
	}
	if !alreadyDraining {
		for _, sess := range open {
			s.requestDrain(sess)
		}
	}

	// Wait for every session to flush and close, up to the deadline.
	err := s.awaitSessions(ctx)

	// Emit every remaining rollup bucket — partial windows included —
	// while subscriber connections are still open, so a draining node
	// never discards accumulated counts. The ticker is stopped first;
	// the final flush owns the copy-out buffer alone.
	s.stopFlusher()
	s.flushRollups(true)

	s.mu.Lock()
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	for _, w := range s.workers {
		w.stop()
	}
	s.wg.Wait()
	s.connWG.Wait()
	return err
}

// awaitSessions blocks until the session table empties or ctx expires.
func (s *Server) awaitSessions(ctx context.Context) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("phased: shutdown abandoned %d undrained sessions: %w", n, ctx.Err())
		case <-tick.C:
		}
	}
}

// requestDrain marks the session draining and schedules it so its
// worker flushes the queue and emits the Drain reply.
func (s *Server) requestDrain(sess *session) {
	w := sess.w
	w.mu.Lock()
	if sess.state == StateOpen || sess.state == StateNegotiating {
		sess.draining = true
		w.scheduleLocked(sess)
	}
	w.mu.Unlock()
}

// readLoop is the per-connection reader: it decodes frames and routes
// them — Hellos to session setup, sample Batches onto worker queues,
// Drains to the flush path. Fatal protocol errors answer with an Error
// frame and close the connection.
func (s *Server) readLoop(sc *serverConn) {
	defer s.connWG.Done()
	defer s.dropConn(sc)
	dec := wire.NewDecoder(deadlineReader{c: sc.c, d: s.cfg.ReadTimeout})
	for {
		kind, payload, err := dec.Next()
		if err != nil {
			if errors.Is(err, wire.ErrBadFrame) {
				code := wire.CodeBadFrame
				if errors.Is(err, wire.ErrBadVersion) {
					code = wire.CodeVersion
				}
				s.protoError(sc, code, 0, err.Error())
			}
			return
		}
		s.framesIn.Inc()
		switch kind {
		case wire.KindHello:
			if !s.handleHello(sc, payload) {
				return
			}
		case wire.KindBatch:
			if !s.handleBatch(sc, payload) {
				return
			}
		case wire.KindDrain:
			if !s.handleClientDrain(sc, payload) {
				return
			}
		case wire.KindRestore:
			if !s.handleRestore(sc, payload) {
				return
			}
		case wire.KindAck, wire.KindSample, wire.KindPrediction, wire.KindRollup, wire.KindError,
			wire.KindSnapshot, wire.KindInvalid:
			// Server-to-client kinds, and samples outside a Batch,
			// arriving here mean a confused peer; KindInvalid cannot
			// leave the decoder.
			s.protoError(sc, wire.CodeBadFrame, 0, "unexpected "+kind.String()+" frame")
			return
		default:
			s.protoError(sc, wire.CodeBadFrame, 0, "unknown frame kind")
			return
		}
	}
}

// protoError counts a protocol error and answers it with an Error
// frame; the caller decides whether the connection survives.
func (s *Server) protoError(sc *serverConn, code wire.ErrorCode, id uint64, msg string) {
	s.protoErrs.Inc()
	_ = sc.writeError(&wire.ErrorFrame{Code: code, SessionID: id, Msg: []byte(msg)})
}

// newSession builds a negotiating session serving spec (core grammar,
// governor's "mon:" prefix allowed): the one construction path Hello
// and Restore share, so a restored session is rebuilt exactly as it
// was first opened. A non-nil snap restores the monitor's state and
// seeds the stream position and accounting from it; a restored session
// is always re-migratable. A failure returns the Error code to answer.
func (s *Server) newSession(sc *serverConn, id uint64, spec []byte, snap *wire.Snapshot) (*session, wire.ErrorCode, error) {
	pred, err := core.NewPredictorFromSpec(strings.TrimPrefix(string(spec), governor.MonitorPrefix), core.SpecEnv{})
	if err != nil {
		return nil, wire.CodeBadSpec, err
	}
	// The monitor carries no hub: the stepping worker folds each
	// served batch's replies into its own (worker.serve).
	mon, err := core.NewMonitor(phase.Default(), pred)
	if err != nil {
		return nil, wire.CodeBadSpec, err
	}
	sess := &session{
		id:   id,
		conn: sc,
		// Pinned once, by the hash that shards the rollup pipeline: a
		// session's samples are always processed in order by one
		// goroutine, and its outcomes land in that worker's agg shard.
		w:         s.workers[s.agg.ShardFor(id)],
		mon:       mon,
		trans:     s.trans,
		numPhases: phase.Default().NumPhases(),
		queue:     newSampleRing(s.cfg.QueueDepth),
		state:     StateNegotiating,
		spec:      append([]byte(nil), spec...),
	}
	if snap != nil {
		if err := mon.Restore(snap.State); err != nil {
			return nil, wire.CodeBadSnapshot, err
		}
		sess.wantSnapshot = true
		sess.dropped, sess.processed = snap.Dropped, snap.Processed
		if snap.LastSeq != wire.NoSamples {
			sess.lastSeq = snap.LastSeq
		}
	}
	return sess, 0, nil
}

// handleHello opens a session: builds the requested predictor,
// registers the session, and answers Ack. It reports whether the
// connection should stay open.
func (s *Server) handleHello(sc *serverConn, payload []byte) bool {
	var h wire.Hello
	if err := wire.DecodeHello(payload, &h); err != nil {
		s.protoError(sc, wire.CodeBadFrame, 0, err.Error())
		return false
	}
	if h.Flags&wire.FlagRollup != 0 {
		return s.handleRollupHello(sc, &h)
	}
	sess, code, err := s.newSession(sc, h.SessionID, h.Spec, nil)
	if err != nil {
		s.protoError(sc, code, h.SessionID, err.Error())
		return true // spec rejection is recoverable; the conn survives
	}
	sess.wantSnapshot = h.Flags&wire.FlagSnapshot != 0
	return s.registerAndAck(sc, sess)
}

// registerAndAck inserts a negotiated session into the server tables —
// enforcing the draining gate, duplicate-id, and per-IP limits — then
// answers the Ack, echoing FlagSnapshot when the session will hand
// back its state on drain, and opens it. Shared by the Hello and
// Restore paths; it reports whether the connection should stay open.
func (s *Server) registerAndAck(sc *serverConn, sess *session) bool {
	s.mu.Lock()
	switch {
	case s.draining || s.closed:
		s.mu.Unlock()
		s.protoError(sc, wire.CodeOverloaded, sess.id, "server draining")
		return false
	case s.sessions[sess.id] != nil:
		s.mu.Unlock()
		s.protoError(sc, wire.CodeDuplicateSession, sess.id, "session id in use")
		return true
	case s.cfg.MaxSessionsPerIP > 0 && s.perIP[sc.ipKey()] >= s.cfg.MaxSessionsPerIP:
		s.mu.Unlock()
		s.protoError(sc, wire.CodeSessionLimit, sess.id, "per-IP session limit reached")
		return true
	}
	s.sessions[sess.id] = sess
	s.perIP[sc.ipKey()]++
	s.sessionsGauge.Set(float64(len(s.sessions)))
	s.mu.Unlock()
	sc.addSession(sess)

	var ackFlags uint16
	if sess.wantSnapshot {
		ackFlags = wire.FlagSnapshot
	}
	if err := sc.writeAck(&wire.Ack{SessionID: sess.id,
		NumPhases: uint8(phase.Default().NumPhases()), Flags: ackFlags}); err != nil {
		return false
	}
	w := sess.w
	w.mu.Lock()
	if sess.state == StateNegotiating {
		sess.state = StateOpen
	}
	w.mu.Unlock()
	return true
}

// handleRestore resumes a session from a client-held snapshot — the
// Snapshot payload a draining server sent, decoded by the same
// DecodeSnapshot that verifies its inner CRC: the predictor is rebuilt
// from the echoed spec exactly as handleHello would, the monitor's
// state is restored from the blob, the stream position and accounting
// are seeded from the snapshot, and the session is registered and
// acked like any other.
// From the first post-Ack sample the prediction stream continues
// bit-identically with the drained session's — possibly on a different
// node, a different worker count, a different worker. A rejected state
// blob answers CodeBadSnapshot; the connection survives.
func (s *Server) handleRestore(sc *serverConn, payload []byte) bool {
	var snap wire.Snapshot
	if _, err := wire.DecodeRestore(payload, &snap); err != nil {
		s.protoError(sc, wire.CodeBadFrame, 0, err.Error())
		return false
	}
	sess, code, err := s.newSession(sc, snap.SessionID, snap.Spec, &snap)
	if err != nil {
		s.protoError(sc, code, snap.SessionID, err.Error())
		return true
	}
	return s.registerAndAck(sc, sess)
}

// handleRollupHello subscribes the connection to the rollup stream: no
// session is opened (the Spec is ignored), the Hello is answered with
// an Ack, and from then on every flushed bucket is pushed to the
// connection as a Rollup frame until it closes.
func (s *Server) handleRollupHello(sc *serverConn, h *wire.Hello) bool {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		s.protoError(sc, wire.CodeOverloaded, h.SessionID, "server draining")
		return false
	}
	s.rollupSubs[sc] = struct{}{}
	s.mu.Unlock()
	return sc.writeAck(&wire.Ack{SessionID: h.SessionID,
		NumPhases: uint8(phase.Default().NumPhases()),
		Flags:     wire.FlagRollup}) == nil
}

// handleBatch unpacks a client sample batch into the worker queues
// with per-frame, not per-record, bookkeeping: every record's session
// is looked up, by the SessionID read straight from the record, in one
// s.mu section, and each worker's rings are filled in one w.mu
// section, in record order, so each session's samples keep their
// order. Each record is decoded once, directly into its session
// ring's next slot. The frame's records count as in flight on the
// connection before the first is queued, so no worker can see the
// count reach zero — and flush early — while the rest of the frame is
// still unqueued. Records that will never be answered are settled
// here instead of by a worker: a record for an unknown session (or
// one owned by another connection) never enters flight and draws its
// own Error frame; evictions settle under the evicting worker's lock;
// late records for draining or closed sessions are dropped silently
// and settle in one call after the last push. A prediction batch
// arriving here is a confused peer (predictions only flow
// server→client) and is connection-fatal.
func (s *Server) handleBatch(sc *serverConn, payload []byte) bool {
	elem, n, recs, err := wire.DecodeBatch(payload)
	if err != nil {
		s.protoError(sc, wire.CodeBadFrame, 0, err.Error())
		return false
	}
	if elem != wire.KindSample {
		s.protoError(sc, wire.CodeBadFrame, 0, "unexpected "+elem.String()+" batch")
		return false
	}
	const size = wire.SampleRecordSize
	sessions := sc.rsess[:0]
	unknown := 0
	var last *session
	s.mu.Lock()
	for i := 0; i < n; i++ {
		// A run of records for one session reuses its lookup.
		if id := wire.SampleSessionID(recs[i*size:]); last == nil || last.id != id {
			last = s.sessions[id]
			if last != nil && last.conn != sc {
				last = nil
			}
		}
		if last == nil {
			unknown++
		}
		sessions = append(sessions, last)
	}
	s.mu.Unlock()
	sc.rsess = sessions

	if unknown > 0 {
		// The Error frame write flushes any pending replies itself.
		for i := range sessions {
			if sessions[i] == nil {
				s.protoError(sc, wire.CodeUnknownSession, wire.SampleSessionID(recs[i*size:]), "no such session on this connection")
			}
		}
	}
	sc.inflight.Add(int64(n - unknown))
	late := 0
	var shedNs int64 // read once, at the frame's first eviction
	for i := range sessions {
		if sessions[i] == nil {
			continue
		}
		// One section per worker: take every remaining record pinned to
		// it, clearing each slot so the scratch holds no session
		// pointers once the frame is queued.
		w := sessions[i].w
		evicted := 0
		w.mu.Lock()
		for j := i; j < len(sessions); j++ {
			sess := sessions[j]
			if sess == nil || sess.w != w {
				continue
			}
			sessions[j] = nil
			if sess.state != StateOpen && sess.state != StateNegotiating {
				late++
				continue
			}
			// Decode the record straight into its ring slot. DecodeBatch
			// sized every record exactly, so the decode cannot fail.
			slot, d := sess.queue.pushSlot()
			_ = wire.DecodeSample(recs[j*size:(j+1)*size], slot)
			if d > 0 {
				evicted += d
				sess.dropped += uint64(d)
				// A shed sample was never served, so it has no class or
				// setting; the rollup counts it against the fleet's shed
				// rate only.
				if shedNs == 0 {
					shedNs = s.clock().UnixNano()
				}
				s.agg.IngestAt(w.idx, shedNs, sess.id,
					phase.ClassUnknown, 0, agg.OutcomeShed, 0)
			}
			w.scheduleLocked(sess)
		}
		if evicted > 0 {
			// Settled under w.mu, before the worker can pop (and settle)
			// the samples that evicted them, so the count cannot reach
			// zero here with a reply still pending.
			sc.inflight.Add(-int64(evicted))
			s.drops.Add(uint64(evicted))
		}
		w.mu.Unlock()
	}
	if late > 0 {
		return sc.settle(late) == nil
	}
	return true
}

// handleClientDrain begins a client-initiated session drain.
func (s *Server) handleClientDrain(sc *serverConn, payload []byte) bool {
	var d wire.Drain
	if err := wire.DecodeDrain(payload, &d); err != nil {
		s.protoError(sc, wire.CodeBadFrame, 0, err.Error())
		return false
	}
	s.mu.Lock()
	sess := s.sessions[d.SessionID]
	s.mu.Unlock()
	if sess == nil || sess.conn != sc {
		s.protoError(sc, wire.CodeUnknownSession, d.SessionID, "no such session on this connection")
		return true
	}
	s.requestDrain(sess)
	return true
}

// unregisterSession removes a flushed session from the server tables.
func (s *Server) unregisterSession(sess *session) {
	s.mu.Lock()
	s.forgetLocked(sess)
	s.mu.Unlock()
	sess.conn.removeSession(sess)
}

// forgetLocked removes sess from the session table and its client IP's
// session count, if it is still registered; callers hold s.mu.
func (s *Server) forgetLocked(sess *session) {
	if s.sessions[sess.id] != sess {
		return
	}
	delete(s.sessions, sess.id)
	key := sess.conn.ipKey()
	if n := s.perIP[key] - 1; n > 0 {
		s.perIP[key] = n
	} else {
		delete(s.perIP, key)
	}
	s.sessionsGauge.Set(float64(len(s.sessions)))
}

// dropConn tears a connection down along with every session it owns.
// Idempotent: the reader's deferred call and write-error paths race
// benignly.
func (s *Server) dropConn(sc *serverConn) {
	sc.close()
	s.mu.Lock()
	delete(s.conns, sc)
	delete(s.rollupSubs, sc)
	s.mu.Unlock()
	for _, sess := range sc.takeSessions() {
		w := sess.w
		w.mu.Lock()
		sess.state = StateClosed
		w.mu.Unlock()
		s.mu.Lock()
		s.forgetLocked(sess)
		s.mu.Unlock()
	}
}

// deadlineReader arms the connection's read deadline before every
// read syscall, so the timeout bounds the gaps between reads rather
// than the whole connection's lifetime. The frame decoder reads ahead
// a chunk at a time, so that is one deadline per chunk, not per frame.
type deadlineReader struct {
	c net.Conn
	d time.Duration
}

func (r deadlineReader) Read(p []byte) (int, error) {
	if r.d > 0 {
		_ = r.c.SetReadDeadline(time.Now().Add(r.d))
	}
	return r.c.Read(p)
}

var _ io.Reader = deadlineReader{}
