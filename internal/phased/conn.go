package phased

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"phasemon/internal/wire"
)

// serverConn wraps one accepted connection. Frame writes from the
// reader goroutine (Acks, Errors) and the workers (Predictions,
// Drains) interleave on it, serialized by wmu; the write buffers are
// reused across frames so the steady-state write path allocates
// nothing.
//
// Predictions are never written one frame at a time: they accumulate
// in preds and flush as one KindBatch frame when the batch reaches the
// server's size threshold, when the connection has no sample left in
// flight, when the FlushInterval timer expires, or when a control
// frame (Ack, Drain, Snapshot, Error, Rollup) needs the wire — the
// control write first flushes the pending batch in the same writev,
// so frame order on the wire matches write order. TCP_NODELAY is set
// on every accepted connection: the coalescer replaces Nagle's
// algorithm with an explicit, bounded latency budget instead of
// stacking the kernel's delay on top of ours.
type serverConn struct {
	srv *Server
	c   net.Conn

	// inflight counts the samples the reader has taken off the wire
	// that are not yet settled: answered into preds, shed, or dropped.
	// When it reaches zero no worker is about to add to the pending
	// batch, so waiting for the timer would only add latency (see
	// settle).
	inflight atomic.Int64

	wmu sync.Mutex
	// wbuf holds the pending control frame.
	wbuf []byte // guarded by wmu

	// Write coalescer state, all under wmu. The buffers are allocated
	// once in newServerConn and reused by every flush; preds is the
	// pending reply batch, bbuf its frame encode buffer, vecs the
	// reusable writev vector, firstPendNs when preds[0] was buffered,
	// armed whether flushTimer is running.
	preds       []wire.Prediction // guarded by wmu
	bbuf        []byte            // guarded by wmu
	vecs        net.Buffers       // guarded by wmu
	wvec        net.Buffers       // guarded by wmu
	flushTimer  *time.Timer       // guarded by wmu
	armed       bool              // guarded by wmu
	firstPendNs int64             // guarded by wmu

	// rsess is reader scratch, owned by the connection's reader
	// goroutine: handleBatch resolves a frame's records' sessions into
	// it, reusing it across frames.
	rsess []*session

	smu      sync.Mutex
	sessions []*session // guarded by smu

	closeOnce sync.Once
}

// newServerConn wraps an accepted connection with its coalescer
// buffers sized off the server's flush threshold. The flush timer is
// created stopped; the hot path only ever Resets it.
func newServerConn(srv *Server, c net.Conn) *serverConn {
	sc := &serverConn{
		srv:   srv,
		c:     c,
		preds: make([]wire.Prediction, 0, srv.flushThreshold),
		bbuf:  make([]byte, 0, srv.flushThreshold*wire.PredictionRecordSize+wire.BatchOverhead),
		vecs:  make(net.Buffers, 0, 2),
	}
	sc.flushTimer = time.AfterFunc(time.Hour, sc.flushExpired)
	sc.flushTimer.Stop()
	return sc
}

// ipKey is the per-IP accounting key (host without port).
func (sc *serverConn) ipKey() string {
	host, _, err := net.SplitHostPort(sc.c.RemoteAddr().String())
	if err != nil {
		return sc.c.RemoteAddr().String()
	}
	return host
}

func (sc *serverConn) close() {
	sc.closeOnce.Do(func() {
		// Close the socket first: it unblocks any writer stuck in a
		// Write under wmu, so the lock below cannot deadlock behind a
		// stalled peer.
		_ = sc.c.Close()
		sc.wmu.Lock()
		sc.flushTimer.Stop()
		sc.wmu.Unlock()
	})
}

func (sc *serverConn) addSession(sess *session) {
	sc.smu.Lock()
	sc.sessions = append(sc.sessions, sess)
	sc.smu.Unlock()
}

func (sc *serverConn) removeSession(sess *session) {
	sc.smu.Lock()
	for i, s := range sc.sessions {
		if s == sess {
			sc.sessions = append(sc.sessions[:i], sc.sessions[i+1:]...)
			break
		}
	}
	sc.smu.Unlock()
}

// takeSessions empties and returns the connection's session list; used
// by teardown so each session is unregistered exactly once.
func (sc *serverConn) takeSessions() []*session {
	sc.smu.Lock()
	out := sc.sessions
	sc.sessions = nil
	sc.smu.Unlock()
	return out
}

// flushExpired is the flush timer's callback: the latency bound on a
// partially filled batch has expired, so write it out now. A write
// failure tears the connection down exactly as it would on the worker
// path (dropConn must run outside wmu).
func (sc *serverConn) flushExpired() {
	sc.wmu.Lock()
	sc.armed = false
	err := sc.flushLocked()
	sc.wmu.Unlock()
	if err != nil {
		sc.srv.dropConn(sc)
	}
}

// flushLocked writes everything pending — the coalesced prediction
// batch, the control frame in wbuf, or both in one writev — under the
// write deadline, then clears both buffers so a later timer-driven
// flush can never re-send stale bytes. Callers hold wmu.
//
//lint:hotpath
func (sc *serverConn) flushLocked() error {
	nb := len(sc.preds)
	if nb == 0 && len(sc.wbuf) == 0 {
		return nil
	}
	if nb > 0 {
		var err error
		sc.bbuf, err = wire.AppendBatchPredictions(sc.bbuf[:0], sc.preds)
		if err != nil {
			return err
		}
	}
	if d := sc.srv.cfg.WriteTimeout; d > 0 {
		_ = sc.c.SetWriteDeadline(time.Now().Add(d))
	}
	var err error
	frames := uint64(1)
	if nb > 0 {
		sc.vecs = append(sc.vecs[:0], sc.bbuf)
		if len(sc.wbuf) > 0 {
			sc.vecs = append(sc.vecs, sc.wbuf)
			frames = 2
		}
		// WriteTo consumes the net.Buffers it is called on, so it runs
		// on wvec, a scratch copy of the header: vecs keeps the reusable
		// backing array, and a field (unlike a local, which escapes via
		// the pointer receiver) costs no allocation.
		sc.wvec = sc.vecs
		_, err = sc.wvec.WriteTo(sc.c)
	} else {
		_, err = sc.c.Write(sc.wbuf)
	}
	if err != nil {
		return err
	}
	sc.srv.framesOut.Add(frames)
	sc.wbuf = sc.wbuf[:0]
	if nb > 0 {
		sc.preds = sc.preds[:0]
		if sc.armed {
			sc.armed = false
			sc.flushTimer.Stop()
		}
		sc.srv.flushes.Inc()
		sc.srv.flushFrames.Observe(float64(nb))
		sc.srv.flushSeconds.Observe(float64(time.Now().UnixNano()-sc.firstPendNs) / 1e9)
	}
	return nil
}

func (sc *serverConn) writeAck(a *wire.Ack) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = wire.AppendAck(sc.wbuf[:0], a)
	return sc.flushLocked()
}

// writePredictions is the worker pool's reply path: it buffers a
// session batch's predictions in one wmu section and flushes only on
// the size threshold — at exactly the record a per-prediction append
// would have, so the wire framing does not depend on how replies were
// handed over. nowNs, the worker's batch-start clock reading, marks
// when a newly opened pending batch began (flush_seconds). The other
// flush triggers run from settle, once the worker has buffered its
// whole session batch.
//
//lint:hotpath
func (sc *serverConn) writePredictions(ps []wire.Prediction, nowNs int64) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	for len(ps) > 0 {
		if len(sc.preds) == 0 {
			sc.firstPendNs = nowNs
		}
		k := min(sc.srv.flushThreshold-len(sc.preds), len(ps))
		sc.preds = append(sc.preds, ps[:k]...)
		ps = ps[k:]
		if len(sc.preds) >= sc.srv.flushThreshold {
			if err := sc.flushLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// settle retires n in-flight samples. If they were the last, no reply
// this connection owes is still queued or being computed, so the
// pending batch flushes now: a client sending one sample at a time is
// answered without waiting out the timer. Otherwise a pending batch
// arms the FlushInterval timer, which bounds replies held back by
// other in-flight samples. Arming only after that decision keeps the
// timer off every batch that flushes at once.
//
//lint:hotpath
func (sc *serverConn) settle(n int) error {
	left := sc.inflight.Add(-int64(n))
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if left <= 0 {
		return sc.flushLocked()
	}
	if len(sc.preds) > 0 && !sc.armed {
		sc.armed = true
		sc.flushTimer.Reset(sc.srv.cfg.FlushInterval)
	}
	return nil
}

func (sc *serverConn) writeDrain(d *wire.Drain) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = wire.AppendDrain(sc.wbuf[:0], d)
	return sc.flushLocked()
}

func (sc *serverConn) writeSnapshot(s *wire.Snapshot) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = sc.wbuf[:0]
	buf, err := wire.AppendSnapshot(sc.wbuf, s)
	if err != nil {
		return err
	}
	sc.wbuf = buf
	return sc.flushLocked()
}

func (sc *serverConn) writeRollup(r *wire.Rollup) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = wire.AppendRollup(sc.wbuf[:0], r)
	return sc.flushLocked()
}

func (sc *serverConn) writeError(e *wire.ErrorFrame) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.wbuf = sc.wbuf[:0]
	buf, err := wire.AppendError(sc.wbuf, e)
	if err != nil {
		return err
	}
	sc.wbuf = buf
	return sc.flushLocked()
}
