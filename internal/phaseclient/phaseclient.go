// Package phaseclient is the client side of the phased wire protocol:
// it dials the streaming phase-prediction service with exponential
// backoff, multiplexes sessions over one connection, and hands each
// session a simple Send/Recv/Drain surface. A monitored node embeds a
// Client, opens a session naming its predictor spec, and streams one
// Sample per sampling interval; predictions come back asynchronously
// so the node can pipeline sends ahead of receives. Samples travel in
// wire.KindBatch frames of up to Config.BatchSize samples each.
//
// One reader goroutine per connection routes the server's frames. A
// reply frame holds a few long runs of one session's replies (the
// server writes each session batch contiguously), so the reader looks
// each run's session up once and appends the whole run to that
// session's bounded reply queue under one lock; Recv pops from it.
//
// The client reconnects between sessions, not within one: a dropped
// connection fails every open session with ErrDisconnected (the
// server-side predictor state died with the connection, so resuming a
// stream would silently break the prediction sequence), and the next
// Open redials with jittered exponential backoff under the caller's
// context.
//
// The exception is migration. A session opened with OpenResumable asks
// the server (wire.FlagSnapshot) to hand back its full predictor state
// when it drains: the Snapshot frame arrives just before the Drain,
// the client stores it, and the session's terminal error then wraps
// ErrResumable as well as ErrDisconnected. Callers that see
// ErrResumable fetch the state with Session.Snapshot and hand it to
// Client.Resume — typically on a fresh client pointed at the restarted
// or replacement node — and the prediction stream continues
// bit-identically from where the drained server left it.
package phaseclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"phasemon/internal/wire"
)

// ErrDisconnected reports that the connection carrying a session died;
// the session cannot be resumed and must be re-opened.
var ErrDisconnected = errors.New("phaseclient: connection lost")

// ErrResumable reports that the session ended with its predictor state
// in hand: the server drained it gracefully and delivered a Snapshot
// frame first. It always accompanies (wraps alongside) ErrDisconnected
// on the session's terminal error, so errors.Is distinguishes "server
// draining, snapshot available — call Client.Resume" from a hard
// transport failure, which only ErrDisconnected matches.
var ErrResumable = errors.New("phaseclient: session drained with snapshot; resumable")

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("phaseclient: client closed")

// ServerError is an Error frame the server addressed to us.
type ServerError struct {
	Code      wire.ErrorCode
	SessionID uint64
	Msg       string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("phaseclient: server error %v (session %d): %s", e.Code, e.SessionID, e.Msg)
}

// Config parameterizes a Client; the zero value (plus Addr) works.
type Config struct {
	// Addr is the server's host:port.
	Addr string
	// DialTimeout bounds one connection attempt. Zero selects 5s.
	DialTimeout time.Duration
	// BackoffBase is the first retry delay; it doubles per failed
	// attempt. Zero selects 50ms.
	BackoffBase time.Duration
	// MaxAttempts bounds connection attempts per dial; zero retries
	// until the context is done.
	MaxAttempts int
	// BatchSize is the number of samples Send packs into one
	// wire.KindBatch frame: the batch is written when it reaches
	// BatchSize samples — or sooner, when FlushInterval expires or a
	// control frame needs the wire. Values above wire.MaxBatchSamples
	// are clamped; 0 or 1 writes every sample at once, as a batch of
	// one.
	BatchSize int
	// FlushInterval bounds how long a buffered sample may wait before
	// its batch flushes. Non-positive selects 500µs.
	FlushInterval time.Duration
}

const (
	// backoffMax caps the retry delay.
	backoffMax = 2 * time.Second
	// writeTimeout bounds each frame write, matching the server's
	// default: a server too slow to drain our frames fails the
	// connection instead of wedging every session sharing it.
	writeTimeout = 5 * time.Second
	// window is the capacity of each session's reply queue (and of a
	// rollup subscription's frame channel): how many replies the
	// reader can stay ahead of Recv before it waits for room.
	window = 1024
)

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BatchSize < 1 {
		c.BatchSize = 1
	}
	if c.BatchSize > wire.MaxBatchSamples {
		c.BatchSize = wire.MaxBatchSamples
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 500 * time.Microsecond
	}
	return c
}

// Client multiplexes prediction sessions over one connection to a
// phased server, redialing (with backoff) whenever a fresh session
// finds the connection gone. All methods are safe for concurrent use.
type Client struct {
	cfg Config

	mu       sync.Mutex
	conn     net.Conn            // guarded by mu
	wbuf     []byte              // guarded by mu
	sessions map[uint64]*Session // guarded by mu
	closed   bool                // guarded by mu
	rng      *rand.Rand          // guarded by mu

	// pend holds buffered samples awaiting the size threshold, the
	// flush timer, or a control write.
	pend      []wire.Sample // guarded by mu
	pendTimer *time.Timer   // guarded by mu; fires flushExpired
	pendArmed bool          // guarded by mu; pendTimer is running

	// Rollup frames carry a node id, not a session id, so the reader
	// routes them to the connection's single subscription rather than
	// through the session table.
	rollupSess *Session         // guarded by mu
	rollupCh   chan wire.Rollup // guarded by mu
}

// New builds a client; no connection is made until the first Open.
func New(cfg Config) *Client {
	c := &Client{
		cfg:      cfg.withDefaults(),
		sessions: make(map[uint64]*Session),
		// Jitter decorrelates a fleet of reconnecting clients; it has
		// no bearing on prediction determinism, which lives entirely
		// server-side.
		rng: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	// Created stopped: Send only ever Resets it.
	c.pendTimer = time.AfterFunc(time.Hour, c.flushExpired)
	c.pendTimer.Stop()
	return c
}

// Session is one open prediction stream.
type Session struct {
	c  *Client
	id uint64

	acks  chan wire.Ack
	drain chan wire.Drain
	// acked is set by the reader when the session's Ack arrives.
	acked atomic.Bool

	// The reply queue: a ring the reader fills a run at a time (push)
	// and Recv empties one reply at a time. Each side sleeps only at an
	// edge — Recv on an empty ring, the reader on a full one — and the
	// other side wakes it through ready or space.
	qmu     sync.Mutex
	q       []wire.Prediction // guarded by qmu; ring storage
	qhead   int               // guarded by qmu; slot of the oldest reply
	qlen    int               // guarded by qmu; replies buffered
	waiters int               // guarded by qmu; Recv callers asleep on ready
	ready   chan struct{}     // capacity 1: replies arrived for a waiter
	space   chan struct{}     // capacity 1: a full queue has room again

	failOnce sync.Once
	done     chan struct{}
	// cause is the terminal error: written once by fail before done
	// closes, read only after done is closed.
	cause error

	// registered is set while the session is in its client's sessions
	// map, so Send checks registration without a map lookup.
	registered bool // guarded by Client.mu

	// granularity echoes the Hello's GranularityUops into any snapshot
	// taken from this session, so Resume reopens with the same value.
	granularity uint64

	snapMu sync.Mutex
	snap   *SessionSnapshot // guarded by snapMu; set once by the reader
}

// SessionSnapshot is a drained session's portable state: everything
// Client.Resume needs to continue the prediction stream bit-identically
// on any phased node. Payload is an owned copy, safe to hold across
// reconnects (or write to disk) after the client is gone.
type SessionSnapshot struct {
	// GranularityUops echoes the session's Hello, so Resume reopens
	// with the same value.
	GranularityUops uint64
	// Payload is the Snapshot frame payload exactly as the server sent
	// it — session id, spec, stream position, accounting, and the
	// monitor state under its own CRC — and Resume sends it back
	// verbatim. Decode reads it.
	Payload []byte
}

// Decode reads the snapshot's fields through wire.DecodeSnapshot,
// which re-verifies the state CRC; Spec and State alias Payload.
// LastSeq is the highest sample sequence number the server processed
// (wire.NoSamples if none): resuming callers send the next interval
// with Seq = LastSeq+1. The resumed session continues the Processed
// and Dropped counts.
func (s SessionSnapshot) Decode() (wire.Snapshot, error) {
	var sn wire.Snapshot
	err := wire.DecodeSnapshot(s.Payload, &sn)
	return sn, err
}

// Open dials if necessary (retrying with jittered exponential backoff
// until ctx is done or MaxAttempts is spent), performs the
// Hello/Ack handshake for the given session id and predictor spec,
// and returns the live session. numPhases is the server's phase count
// from the Ack.
func (c *Client) Open(ctx context.Context, id uint64, spec string, granularityUops uint64) (sess *Session, numPhases int, err error) {
	return c.open(ctx, id, spec, granularityUops, 0)
}

// OpenResumable is Open with wire.FlagSnapshot set: when the server
// drains the session, it first hands back the predictor's full state,
// which Session.Snapshot then exposes and Client.Resume accepts. Use
// it for sessions that must survive server restarts.
func (c *Client) OpenResumable(ctx context.Context, id uint64, spec string, granularityUops uint64) (sess *Session, numPhases int, err error) {
	return c.open(ctx, id, spec, granularityUops, wire.FlagSnapshot)
}

func (c *Client) open(ctx context.Context, id uint64, spec string, granularityUops uint64, flags uint16) (*Session, int, error) {
	s, err := c.handshake(ctx, id, granularityUops, func(b []byte) ([]byte, error) {
		return wire.AppendHello(b, &wire.Hello{
			SessionID:       id,
			GranularityUops: granularityUops,
			Flags:           flags,
			Spec:            []byte(spec),
		})
	})
	if err != nil {
		return nil, 0, err
	}
	return c.awaitAck(ctx, s)
}

// Resume reopens a drained session from its snapshot, dialing (with
// backoff) if necessary. The Restore frame carries snap.Payload
// verbatim; the server rebuilds the predictor from its spec, restores
// its state, and continues the prediction stream bit-identically — the
// resumed session behaves as if the drain never happened, including on
// a different node or worker layout. The resumed session is itself
// resumable on the next drain.
func (c *Client) Resume(ctx context.Context, snap SessionSnapshot) (sess *Session, numPhases int, err error) {
	sn, err := snap.Decode()
	if err != nil {
		return nil, 0, fmt.Errorf("phaseclient: resume: %w", err)
	}
	s, err := c.handshake(ctx, sn.SessionID, snap.GranularityUops, func(b []byte) ([]byte, error) {
		return wire.AppendRestore(b, snap.GranularityUops, snap.Payload)
	})
	if err != nil {
		return nil, 0, err
	}
	return c.awaitAck(ctx, s)
}

// handshake registers a new session and writes its opening frame
// (Hello or Restore) on the dialed connection.
func (c *Client) handshake(ctx context.Context, id uint64, granularityUops uint64, encode func([]byte) ([]byte, error)) (*Session, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.sessions[id] != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("phaseclient: session %d already open", id)
	}
	if c.conn == nil {
		conn, derr := c.dialLocked(ctx)
		if derr != nil {
			c.mu.Unlock()
			return nil, derr
		}
		c.conn = conn
		go c.readLoop(conn)
	}
	s := newSession(c, id, window)
	s.granularity = granularityUops
	c.addLocked(s)
	var encErr error
	werr := c.writeLocked(func(b []byte) []byte {
		out, err := encode(b)
		if err != nil {
			encErr = err
			return b
		}
		return out
	})
	c.mu.Unlock()
	if encErr != nil {
		c.forget(s)
		return nil, encErr
	}
	if werr != nil {
		c.forget(s)
		return nil, werr
	}
	return s, nil
}

// awaitAck blocks until the session's opening frame is answered.
func (c *Client) awaitAck(ctx context.Context, s *Session) (*Session, int, error) {
	select {
	case ack := <-s.acks:
		return s, int(ack.NumPhases), nil
	case <-s.done:
		// The reader handles frames in order, so an Ack that came before
		// the failure is already buffered: the session opened, and Recv
		// reports the failure that followed.
		select {
		case ack := <-s.acks:
			return s, int(ack.NumPhases), nil
		default:
		}
		c.forget(s)
		return nil, 0, s.cause
	case <-ctx.Done():
		c.forget(s)
		return nil, 0, ctx.Err()
	}
}

// dialLocked connects with backoff; callers hold c.mu (held across the
// retry sleeps deliberately — a client reconnects as a unit).
func (c *Client) dialLocked(ctx context.Context) (net.Conn, error) {
	d := net.Dialer{Timeout: c.cfg.DialTimeout}
	delay := c.cfg.BackoffBase
	for attempt := 1; ; attempt++ {
		conn, err := d.DialContext(ctx, "tcp", c.cfg.Addr)
		if err == nil {
			// Send coalesces explicitly under FlushInterval; Nagle's
			// algorithm would stack a second, unaccounted delay on top
			// of it (and on every batch of one).
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(true)
			}
			return conn, nil
		}
		if c.cfg.MaxAttempts > 0 && attempt >= c.cfg.MaxAttempts {
			return nil, fmt.Errorf("phaseclient: dial %s: %d attempts exhausted: %w",
				c.cfg.Addr, attempt, err)
		}
		// Full jitter: sleep uniformly in [delay/2, delay), then
		// double toward the cap.
		sleep := delay/2 + time.Duration(c.rng.Int63n(int64(delay/2)+1))
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("phaseclient: dial %s: %w (last error: %v)",
				c.cfg.Addr, ctx.Err(), err)
		case <-time.After(sleep):
		}
		delay = min(2*delay, backoffMax)
	}
}

// writeLocked encodes a frame into the shared buffer and writes it;
// callers hold c.mu. Buffered samples flush first, so a control frame
// (Hello, Drain) can never overtake the samples sent before it.
func (c *Client) writeLocked(encode func([]byte) []byte) error {
	if c.conn == nil {
		return ErrDisconnected
	}
	if err := c.flushPendLocked(); err != nil {
		return err
	}
	c.wbuf = encode(c.wbuf[:0])
	if err := c.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		c.teardownLocked(err)
		return ErrDisconnected
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		c.teardownLocked(err)
		return ErrDisconnected
	}
	return nil
}

// flushPendLocked writes the buffered sample batch as one KindBatch
// frame under the write deadline; callers hold c.mu. A write failure
// tears the connection down, exactly as a control write's would.
//
//lint:hotpath
func (c *Client) flushPendLocked() error {
	if len(c.pend) == 0 || c.conn == nil {
		return nil
	}
	if c.pendArmed {
		c.pendArmed = false
		c.pendTimer.Stop()
	}
	buf, err := wire.AppendBatchSamples(c.wbuf[:0], c.pend)
	c.pend = c.pend[:0]
	if err != nil {
		return err
	}
	c.wbuf = buf
	if err := c.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		c.teardownLocked(err)
		return ErrDisconnected
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		c.teardownLocked(err)
		return ErrDisconnected
	}
	return nil
}

// flushExpired is the batch flush timer's callback: the latency bound
// on a partially filled batch expired. Write failures tear the
// connection down inside flushPendLocked.
func (c *Client) flushExpired() {
	c.mu.Lock()
	c.pendArmed = false
	_ = c.flushPendLocked()
	c.mu.Unlock()
}

// readLoop demultiplexes server frames to sessions until the
// connection dies — a transport error, or a frame that fails to decode
// or that no server sends — then fails every open session.
func (c *Client) readLoop(conn net.Conn) {
	dec := wire.NewDecoder(conn)
	for {
		kind, payload, err := dec.Next()
		if err == nil {
			if err = c.demux(kind, payload); err != nil {
				err = fmt.Errorf("phaseclient: bad %v frame from server: %w", kind, err)
			}
		}
		if err != nil {
			c.mu.Lock()
			if c.conn == conn {
				c.teardownLocked(err)
			}
			c.mu.Unlock()
			return
		}
	}
}

// demux decodes one frame and routes it to its session; every error it
// returns is fatal to the connection. Factored out of readLoop so the
// steady-state path has a synchronous zero-allocation witness
// (TestDemuxZeroAlloc).
func (c *Client) demux(kind wire.FrameKind, payload []byte) error {
	switch kind {
	case wire.KindAck:
		var a wire.Ack
		if err := wire.DecodeAck(payload, &a); err != nil {
			return err
		}
		if s := c.lookup(a.SessionID); s != nil {
			s.acked.Store(true)
			select {
			case s.acks <- a:
			default:
			}
		}
	case wire.KindDrain:
		var d wire.Drain
		if err := wire.DecodeDrain(payload, &d); err != nil {
			return err
		}
		if s := c.lookup(d.SessionID); s != nil {
			select {
			case s.drain <- d:
			default:
			}
		}
	case wire.KindRollup:
		var r wire.Rollup
		if err := wire.DecodeRollup(payload, &r); err != nil {
			return err
		}
		c.mu.Lock()
		s, ch := c.rollupSess, c.rollupCh
		c.mu.Unlock()
		if s != nil {
			select {
			case ch <- r:
			case <-s.done:
			}
		}
	case wire.KindError:
		var e wire.ErrorFrame
		if err := wire.DecodeError(payload, &e); err != nil {
			return err
		}
		serr := &ServerError{Code: e.Code, SessionID: e.SessionID, Msg: string(e.Msg)}
		s := c.lookup(e.SessionID)
		if s != nil && e.Code == wire.CodeUnknownSession && !s.acked.Load() {
			// The server sends unknown-session only in answer to a
			// sample or a drain, and a session awaiting its Ack has
			// sent neither. The error answers an earlier session
			// under this id, whose samples reached the server after
			// it dropped that session (a Hello or Restore flushes
			// buffered samples first), so it is not this session's.
			s = nil
		}
		if s != nil {
			// A session-scoped error is terminal for that session on
			// the server; unregister it so the same id can be
			// reopened or resumed on this client — before failing
			// it, so a caller woken by the error finds the id free.
			c.forget(s)
			// A server error landing after the session's snapshot
			// (e.g. unknown-session for a sample sent while the
			// server was draining it) still ends a resumable stream:
			// frames arrive in order, so the snapshot is already
			// stored, and the terminal error should say so.
			if _, ok := s.Snapshot(); ok {
				s.fail(fmt.Errorf("%w: %w", ErrResumable, serr))
			} else {
				s.fail(serr)
			}
		}
	case wire.KindSnapshot:
		var sn wire.Snapshot
		if err := wire.DecodeSnapshot(payload, &sn); err != nil {
			return err
		}
		if s := c.lookup(sn.SessionID); s != nil {
			// Copy out of the decode buffer: the snapshot outlives
			// the frame (that is its entire purpose).
			s.storeSnapshot(&SessionSnapshot{GranularityUops: s.granularity,
				Payload: append([]byte(nil), payload...)})
		}
	case wire.KindBatch:
		elem, n, recs, err := wire.DecodeBatch(payload)
		if err != nil {
			return err
		}
		if elem != wire.KindPrediction {
			return fmt.Errorf("%w: %v records from server", wire.ErrBadKind, elem)
		}
		// One lookup and one queue push per run of equal session ids.
		const size = wire.PredictionRecordSize
		for i := 0; i < n; {
			id := wire.PredictionSessionID(recs[i*size:])
			j := i + 1
			for j < n && wire.PredictionSessionID(recs[j*size:]) == id {
				j++
			}
			if s := c.lookup(id); s != nil {
				if err := s.push(recs[i*size : j*size]); err != nil {
					return err
				}
			}
			i = j
		}
	default:
		// Client-to-server kinds (Hello, Restore, standalone Samples),
		// predictions outside a Batch, or the unreachable zero kind
		// mean a broken peer.
		return errors.New("not a server-to-client frame")
	}
	return nil
}

// teardownLocked drops the connection and fails every session; callers
// hold c.mu.
func (c *Client) teardownLocked(cause error) {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	// Buffered samples die with the conn (their sessions are failing
	// below).
	c.pend = c.pend[:0]
	if c.pendArmed {
		c.pendArmed = false
		c.pendTimer.Stop()
	}
	err := ErrDisconnected
	if cause != nil {
		err = fmt.Errorf("%w: %w", ErrDisconnected, cause)
	}
	for id, s := range c.sessions {
		// A session whose snapshot already landed ended by graceful
		// server drain, not transport failure: its terminal error also
		// matches ErrResumable so the caller knows to Resume.
		if _, ok := s.Snapshot(); ok {
			s.fail(fmt.Errorf("%w: %w", ErrResumable, err))
		} else {
			s.fail(err)
		}
		s.registered = false
		delete(c.sessions, id)
	}
	c.rollupSess = nil
}

// addLocked registers s under its id; callers hold c.mu.
func (c *Client) addLocked(s *Session) {
	c.sessions[s.id] = s
	s.registered = true
}

func (c *Client) lookup(id uint64) *Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[id]
}

// forget removes a session that never fully opened (or finished).
func (c *Client) forget(s *Session) {
	c.mu.Lock()
	if s.registered {
		s.registered = false
		delete(c.sessions, s.id)
	}
	if c.rollupSess == s {
		c.rollupSess = nil
	}
	c.mu.Unlock()
}

// Close tears down the connection and fails open sessions.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.teardownLocked(ErrClosed)
	return nil
}

// newSession builds an unregistered session whose reply queue holds
// depth replies.
func newSession(c *Client, id uint64, depth int) *Session {
	return &Session{
		c:     c,
		id:    id,
		acks:  make(chan wire.Ack, 1),
		drain: make(chan wire.Drain, 1),
		q:     make([]wire.Prediction, depth),
		ready: make(chan struct{}, 1),
		space: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

// fail delivers a terminal error to the session exactly once; err must
// be non-nil.
func (s *Session) fail(err error) {
	s.failOnce.Do(func() {
		s.cause = err
		close(s.done)
	})
}

// wake posts a token on a capacity-1 wake channel; a token already
// there wakes the same sleeper, so a full channel drops this one.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// push decodes one run of the session's reply records onto the tail of
// its queue, waiting for room while the queue is full — as long as
// the session lives: once it is done, the rest of the run is dropped.
// Only the connection's reader calls it. A Recv asleep on the empty
// queue is woken once per push, not once per reply.
//
//lint:hotpath
func (s *Session) push(recs []byte) error {
	const size = wire.PredictionRecordSize
	for len(recs) > 0 {
		s.qmu.Lock()
		room := len(s.q) - s.qlen
		if room == 0 {
			s.qmu.Unlock()
			select {
			case <-s.space:
				continue
			case <-s.done:
				return nil
			}
		}
		wakeRecv := s.qlen == 0 && s.waiters > 0
		k := min(room, len(recs)/size)
		tail := s.qhead + s.qlen
		for i := 0; i < k; i++ {
			if tail >= len(s.q) {
				tail -= len(s.q)
			}
			if err := wire.DecodePrediction(recs[i*size:(i+1)*size], &s.q[tail]); err != nil {
				s.qmu.Unlock()
				return err
			}
			tail++
		}
		s.qlen += k
		s.qmu.Unlock()
		if wakeRecv {
			wake(s.ready)
		}
		recs = recs[k*size:]
	}
	return nil
}

// Send streams one sample. The session id is stamped by the client.
// The sample is buffered and flushed with its batch: at once when the
// batch reaches Config.BatchSize, otherwise on FlushInterval or the
// next control frame, whichever comes first.
//
//lint:hotpath
func (s *Session) Send(smp wire.Sample) error {
	smp.SessionID = s.id
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !s.registered || c.conn == nil {
		return ErrDisconnected
	}
	c.pend = append(c.pend, smp)
	if len(c.pend) >= c.cfg.BatchSize {
		return c.flushPendLocked()
	}
	// The batch stays pending: bound its wait.
	if !c.pendArmed {
		c.pendArmed = true
		c.pendTimer.Reset(c.cfg.FlushInterval)
	}
	return nil
}

// Recv returns the next prediction, blocking until one arrives, the
// session fails, or ctx is done. Replies buffered before the session
// failed come first; then every call returns the terminal error (which
// matches ErrResumable when the server drained the session with a
// snapshot). Concurrent callers each get distinct replies.
//
//lint:hotpath
func (s *Session) Recv(ctx context.Context) (wire.Prediction, error) {
	s.qmu.Lock()
	for s.qlen == 0 {
		select {
		case <-s.done:
			s.qmu.Unlock()
			return wire.Prediction{}, s.cause
		default:
		}
		s.waiters++
		s.qmu.Unlock()
		var err error
		select {
		case <-s.ready:
		case <-s.done:
		case <-ctx.Done():
			err = ctx.Err()
		}
		s.qmu.Lock()
		s.waiters--
		if err != nil {
			s.qmu.Unlock()
			return wire.Prediction{}, err
		}
	}
	p := s.q[s.qhead]
	if s.qhead++; s.qhead == len(s.q) {
		s.qhead = 0
	}
	// The reader may be asleep on a full queue.
	wakeReader := s.qlen == len(s.q)
	s.qlen--
	// Replies remain and another caller sleeps: pass the wake on.
	wakeRecv := s.qlen > 0 && s.waiters > 0
	s.qmu.Unlock()
	if wakeRecv {
		wake(s.ready)
	}
	if wakeReader {
		wake(s.space)
	}
	return p, nil
}

// Drain asks the server to flush the session and waits for its Drain
// reply; buffered predictions remain readable via Recv afterward. The
// session is closed on return.
func (s *Session) Drain(ctx context.Context) (wire.Drain, error) {
	s.c.mu.Lock()
	err := errors.New("phaseclient: session not open")
	if s.registered {
		err = s.c.writeLocked(func(b []byte) []byte {
			return wire.AppendDrain(b, &wire.Drain{SessionID: s.id})
		})
	}
	s.c.mu.Unlock()
	if err != nil {
		return wire.Drain{}, err
	}
	defer s.c.forget(s)
	select {
	case d := <-s.drain:
		return d, nil
	case <-s.done:
		return wire.Drain{}, s.cause
	case <-ctx.Done():
		return wire.Drain{}, ctx.Err()
	}
}

// storeSnapshot records the session's drained state; called by the
// reader goroutine when the Snapshot frame arrives (always before the
// session's Drain frame, by the server's emit order).
func (s *Session) storeSnapshot(snap *SessionSnapshot) {
	s.snapMu.Lock()
	s.snap = snap
	s.snapMu.Unlock()
}

// Snapshot returns the session's drained predictor state, if the
// server delivered one. It reports false until the session (opened
// with OpenResumable or Resume) has drained. The snapshot remains
// available after the session fails or the client closes — it is the
// input to Client.Resume on a fresh connection.
func (s *Session) Snapshot() (SessionSnapshot, bool) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.snap == nil {
		return SessionSnapshot{}, false
	}
	return *s.snap, true
}

// Drained exposes server-initiated Drain frames: when the server shuts
// down gracefully it flushes the session and sends a Drain without
// being asked, and it arrives here. (A client-initiated Drain consumes
// the reply itself.)
//
//lint:unusedexport reference oracle: the serving tests observe the server's unsolicited Drain frames through it
func (s *Session) Drained() <-chan wire.Drain { return s.drain }

// RollupSub is a live subscription to a phased node's rollup stream:
// every time the server's flusher closes a time bucket, its Rollup
// frame arrives here. cmd/phasetop opens one per node and folds the
// frames into an agg.Merger.
type RollupSub struct {
	s  *Session
	ch chan wire.Rollup
}

// SubscribeRollups performs a Hello handshake with wire.FlagRollup
// set, turning the connection into a rollup subscriber. The id is
// used only to route the handshake's Ack (no session opens
// server-side); one subscription per client connection.
func (c *Client) SubscribeRollups(ctx context.Context, id uint64) (*RollupSub, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.sessions[id] != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("phaseclient: session %d already open", id)
	}
	if c.rollupSess != nil {
		c.mu.Unlock()
		return nil, errors.New("phaseclient: rollup subscription already open")
	}
	if c.conn == nil {
		conn, derr := c.dialLocked(ctx)
		if derr != nil {
			c.mu.Unlock()
			return nil, derr
		}
		c.conn = conn
		go c.readLoop(conn)
	}
	// The server answers a subscription with rollups, never with
	// predictions, so its reply queue needs only one slot.
	s := newSession(c, id, 1)
	ch := make(chan wire.Rollup, window)
	c.addLocked(s)
	c.rollupSess, c.rollupCh = s, ch
	err := c.writeLocked(func(b []byte) []byte {
		// An empty spec cannot exceed MaxPayload, so the encode error
		// is structurally impossible here.
		out, _ := wire.AppendHello(b, &wire.Hello{SessionID: id, Flags: wire.FlagRollup})
		return out
	})
	c.mu.Unlock()
	if err != nil {
		c.forget(s)
		return nil, err
	}
	select {
	case <-s.acks:
		return &RollupSub{s: s, ch: ch}, nil
	case <-s.done:
		c.forget(s)
		return nil, s.cause
	case <-ctx.Done():
		c.forget(s)
		return nil, ctx.Err()
	}
}

// Recv returns the next rollup frame, blocking until one arrives, the
// connection dies, or ctx is done. Frames buffered before a
// disconnect remain readable.
func (r *RollupSub) Recv(ctx context.Context) (wire.Rollup, error) {
	select {
	case v := <-r.ch:
		return v, nil
	default:
	}
	select {
	case v := <-r.ch:
		return v, nil
	case <-r.s.done:
		// Drain anything the reader delivered before teardown.
		select {
		case v := <-r.ch:
			return v, nil
		default:
		}
		return wire.Rollup{}, r.s.cause
	case <-ctx.Done():
		return wire.Rollup{}, ctx.Err()
	}
}
