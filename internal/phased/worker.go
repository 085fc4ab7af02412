package phased

import (
	"slices"
	"sync"

	"phasemon/internal/core"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// worker owns a shard of the session space. Its mutex guards the
// runqueue and the queue/queued/state/draining fields of every session
// pinned to it; the run goroutine is the only place those sessions'
// monitors step, which is what serializes per-session prediction
// compute without per-session locks.
type worker struct {
	srv *Server
	// idx is the worker's position in the pool and its shard index in
	// the rollup aggregator: newSession pins a session to the worker
	// agg.ShardFor names, so its outcomes always land in one agg shard.
	idx     int
	mu      sync.Mutex
	cond    *sync.Cond
	runq    []*session // guarded by mu
	started bool       // guarded by Server.mu
	stopped bool       // guarded by mu

	// snapBuf is the run goroutine's reusable monitor-state encode
	// buffer: draining a worker's whole session shard snapshots into
	// one allocation-amortized scratch slice.
	snapBuf []byte // owned by the run goroutine
	// spare is the empty ring run swaps in for a session's.
	spare sampleRing // owned by the run goroutine
	// mem holds each stepped sample's Mem/Uop reading, beside its
	// reply, for serve's telemetry fold.
	mem []float64 // owned by the run goroutine
	// tel is the hub batch serve folds each stepped session batch into
	// and publishes once per batch; nil when the server is unobserved.
	tel *telemetry.StepBatch // owned by the run goroutine
}

// scheduleLocked puts the session on the runqueue if it is not already
// there; callers hold w.mu.
func (w *worker) scheduleLocked(sess *session) {
	if !sess.queued {
		sess.queued = true
		w.runq = append(w.runq, sess)
		w.cond.Signal()
	}
}

// stop wakes the run loop for exit once its queue empties.
func (w *worker) stop() {
	w.mu.Lock()
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// run is the worker loop: pop a session, take its whole pending batch,
// serve it (step each sample through the monitor into its reply, then
// fold the replies once into the hub), hand the replies to the
// connection's coalescer, ingest them into the rollup, and settle the
// batch (which flushes the replies if nothing else is in flight
// there). The batch is taken in one swap of the session's ring for
// the worker's empty spare (every ring has QueueDepth slots) and
// stepped where the reader decoded it; the reader refills the new
// ring meanwhile, and the drained ring is the next spare. A session re-queues itself if more
// samples arrive mid-batch, preserving FIFO order because it is
// always this one goroutine that processes it. Bookkeeping is per
// batch: two clock reads, one hub fold and publication, one coalescer
// section, one histogram update and one rollup ingest, however many
// samples the batch holds; the replies are the batch's one record of
// its samples. The hub publication precedes the hand-off to the
// coalescer, so anything that has seen a reply also sees its step
// counted in the hub.
//
//lint:hotpath
func (w *worker) run() {
	var preds []wire.Prediction
	w.mu.Lock()
	for {
		for len(w.runq) == 0 && !w.stopped {
			w.cond.Wait()
		}
		if len(w.runq) == 0 && w.stopped {
			w.mu.Unlock()
			return
		}
		sess := w.runq[0]
		w.runq = w.runq[1:]
		ring := sess.queue
		sess.queue = w.spare
		sess.queued = false
		draining := sess.draining
		dropped := sess.dropped
		closed := sess.state == StateClosed
		if draining && !closed {
			sess.state = StateDraining
		}
		w.mu.Unlock()

		first, wrapped := ring.segments()
		if n := len(first) + len(wrapped); !closed && n > 0 {
			start := w.srv.clock()
			startNs := start.UnixNano()
			preds = slices.Grow(preds[:0], n)[:n]
			pending := w.serve(sess, preds, first, wrapped, dropped, startNs)
			err := sess.conn.writePredictions(preds, startNs)
			// Every sample of the batch is recorded at the batch's mean
			// latency: counts and sums stay exact with one clock read
			// at each end of the batch.
			elapsed := w.srv.clock().Sub(start)
			w.srv.frameSeconds.ObserveN(elapsed.Seconds()/float64(n), n)
			w.srv.agg.IngestBatchAt(w.idx, startNs, sess.id, preds, pending, elapsed.Nanoseconds()/int64(n))
			if err == nil {
				err = sess.conn.settle(n)
			}
			if err != nil {
				w.srv.dropConn(sess.conn)
				closed = true
			}
		}
		w.spare = sampleRing{buf: ring.buf} // drained: empty again
		if draining && !closed {
			last := sess.lastSeq
			if sess.processed == 0 {
				last = wire.NoSamples
			}
			// Unregister before the Drain reply goes out: a client that
			// re-claims the id the moment its Drain returns must find
			// the table slot already free.
			w.mu.Lock()
			sess.state = StateClosed
			droppedNow := sess.dropped
			w.mu.Unlock()
			// Snapshot before the Drain reply: the client treats Drain as
			// the session's last frame, so the state must already be in
			// its hands. The queue is empty and the state is Closed, so
			// the monitor is quiescent; the worker goroutine owns it.
			if sess.wantSnapshot {
				state, err := sess.mon.Snapshot(w.snapBuf[:0])
				if err == nil {
					w.snapBuf = state
					snap := wire.Snapshot{SessionID: sess.id, LastSeq: last,
						Processed: sess.processed, Dropped: droppedNow,
						Spec: sess.spec, State: state}
					err = sess.conn.writeSnapshot(&snap)
				}
				if err != nil {
					// State that cannot be handed back (say, a table too
					// large for one frame) fails the session loudly; a
					// bare Drain would pass it off as stateless.
					_ = sess.conn.writeError(&wire.ErrorFrame{Code: wire.CodeBadSnapshot,
						SessionID: sess.id, Msg: []byte("snapshot: " + err.Error())})
				}
			}
			w.srv.unregisterSession(sess)
			d := wire.Drain{SessionID: sess.id, LastSeq: last}
			_ = sess.conn.writeDrain(&d)
		}

		w.mu.Lock()
	}
}

// serve steps a session batch — the ring's two segments, oldest first
// — into preds, one reply per sample, then folds the replies once into
// the worker's StepBatch and publishes it: each reply's (Actual, Next)
// against the reply before it (the monitor's state before the batch,
// for the first), its Mem/Uop reading as the step converted it, its
// journal events stamped nowNs, and the batch's PHT lookups as the
// difference of the predictor's running counts. It returns the
// prediction pending before the batch, which the rollup ingest scores
// the first reply against.
//
//lint:hotpath
func (w *worker) serve(sess *session, preds []wire.Prediction, first, wrapped []wire.Sample, dropped uint64, nowNs int64) phase.ID {
	mon := sess.mon
	pending, lastActual, step := mon.LastPrediction(), mon.LastActual(), int(sess.processed)
	hits, misses := core.PHTLookups(mon.Predictor())
	mem := slices.Grow(w.mem[:0], len(preds))[:len(preds)]
	w.mem = mem
	j := 0
	for _, seg := range [...][]wire.Sample{first, wrapped} {
		for i := range seg {
			mem[j] = sess.step(&seg[i], &preds[j], dropped)
			j++
		}
	}
	if w.tel == nil {
		return pending
	}
	nowHits, nowMisses := core.PHTLookups(mon.Predictor())
	w.tel.GPHTLookups(nowHits-hits, nowMisses-misses)
	lastNext := pending
	for j := range preds {
		p := &preds[j]
		w.tel.Fold(step+j, mem[j], int(lastActual), int(lastNext), int(p.Actual), int(p.Next), nowNs)
		lastActual, lastNext = phase.ID(p.Actual), phase.ID(p.Next)
	}
	w.tel.Publish()
	return pending
}
