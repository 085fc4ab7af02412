package phased

import (
	"fmt"

	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/phase"
	"phasemon/internal/wire"
)

// SessionState is the lifecycle of one streamed-prediction session.
// The transitions are strictly forward: Negotiating → Open →
// Draining → Closed. Switches over SessionState are enforced
// exhaustive by phasemonlint, like the other repo taxonomies.
type SessionState uint8

const (
	// StateNegotiating covers the window between the Hello frame
	// arriving and the Ack going out (predictor construction).
	StateNegotiating SessionState = iota
	// StateOpen is the steady state: Sample frames in, Prediction
	// frames out.
	StateOpen
	// StateDraining means a Drain was requested (by the client or by
	// server shutdown); queued samples still flush, new ones are
	// refused.
	StateDraining
	// StateClosed means the Drain reply has been sent and the session
	// no longer exists server-side.
	StateClosed
)

// String names the state for logs and errors.
func (s SessionState) String() string {
	switch s {
	case StateNegotiating:
		return "negotiating"
	case StateOpen:
		return "open"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("SessionState(%d)", uint8(s))
	}
}

// sampleRing is a fixed-capacity FIFO of samples with a drop-oldest
// overflow policy: under backpressure the freshest window of samples
// survives, which is the right call for phase monitoring — predictions
// about the recent past are worthless, predictions about now are not.
// A session's ring is guarded by its worker's mutex; the worker takes
// it whole, swapping in an empty one (worker.run).
type sampleRing struct {
	buf     []wire.Sample
	head, n int
}

func newSampleRing(capacity int) sampleRing {
	return sampleRing{buf: make([]wire.Sample, capacity)}
}

// pushSlot claims the slot of a new newest sample for the caller to
// fill, evicting the oldest queued sample when full. It reports how
// many samples were dropped (0 or 1).
func (r *sampleRing) pushSlot() (slot *wire.Sample, dropped int) {
	if r.n == len(r.buf) {
		r.head = (r.head + 1) % len(r.buf)
		r.n--
		dropped = 1
	}
	slot = &r.buf[(r.head+r.n)%len(r.buf)]
	r.n++
	return slot, dropped
}

// segments returns the queued samples, oldest first, as the ring's two
// contiguous runs: from head to the buffer's end, then the wrapped run.
func (r *sampleRing) segments() (first, wrapped []wire.Sample) {
	end := r.head + r.n
	if end <= len(r.buf) {
		return r.buf[r.head:end], nil
	}
	return r.buf[r.head:], r.buf[:end-len(r.buf)]
}

// session is one monitored node's stream. Mutable fields are owned by
// exactly one party at a time: queue/queued/state/draining are guarded
// by the pinned worker's mutex (the reader goroutine and the worker
// both take it); the monitor and everything below stepLocked is
// touched only by the pinned worker goroutine, which serializes all
// prediction compute for the session.
type session struct {
	id   uint64
	conn *serverConn
	// w is the worker the session is pinned to, resolved once at open
	// by agg.ShardFor: the worker's index is the session's agg shard.
	w *worker

	mon       *core.Monitor
	trans     *dvfs.Translation
	numPhases int

	// wantSnapshot records that the session opened with FlagSnapshot
	// (or via Restore, which implies it): when the session drains, its
	// pinned worker emits a Snapshot frame — the monitor's full state —
	// before the Drain reply. spec is the session's own copy of the
	// predictor spec it was opened with, echoed in that frame so the
	// resuming server rebuilds the identical predictor. Both are set
	// once at open and never written again.
	wantSnapshot bool
	spec         []byte

	// Owned by the pinned worker; see the struct comment.
	state    SessionState // guarded by worker.mu
	queue    sampleRing   // guarded by worker.mu
	queued   bool         // guarded by worker.mu; on the worker's runqueue
	draining bool         // guarded by worker.mu; drain requested; flush then close
	dropped  uint64       // guarded by worker.mu; queue evictions, echoed in Predictions

	// Owned by the worker goroutine.
	lastSeq   uint64 // highest processed sample sequence number
	processed uint64 // samples stepped through the monitor
}

// step runs one sample through the session's monitor and fills p with
// the prediction reply. It is the pure compute core of the serving
// path — no locks, no I/O, no telemetry — and converts counters
// through phase.FromCounters, as kernelsim.HandlePMI does, so a
// streamed session is bit-identical to a local simulated run over the
// same counters. dropped is the worker's snapshot of the session's
// cumulative eviction count (taken under the worker lock, so step
// itself stays lock-free). The reply is the sample's one record: the
// worker folds the batch's replies into the hub and the rollup
// afterwards (worker.serve, agg.IngestBatchAt). p is written field by
// field: a composed copy stalls on store forwarding.
//
//lint:hotpath
func (s *session) step(smp *wire.Sample, p *wire.Prediction, dropped uint64) {
	actual, next := s.mon.Step(phase.FromCounters(smp.Uops, smp.MemTx, smp.Cycles))
	s.lastSeq = smp.Seq
	s.processed++
	p.SessionID = s.id
	p.Seq = smp.Seq
	p.Actual = uint8(actual)
	p.Next = uint8(next)
	p.Class = uint8(phase.ClassOf(next, s.numPhases))
	p.Setting = uint8(s.trans.Setting(next))
	p.Dropped = dropped
}
