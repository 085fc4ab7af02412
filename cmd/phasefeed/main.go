// Command phasefeed replays workload traces against a phased server as
// a fleet of simulated monitored nodes. Each node runs the workload
// locally first (through the governor, monitoring-only), then streams
// the run's raw per-interval counters to the server at a configurable
// rate; with -check it also verifies that every streamed prediction is
// bit-identical to what the local run produced — the end-to-end
// determinism contract of the serving stack.
//
// The exit status is the verdict: 0 when every node drained cleanly
// with no mismatches, dropped samples, or server errors; 1 otherwise.
//
// With -resume each node opens its session resumable: if the server
// drains mid-stream (a rolling restart), the node takes the Snapshot
// frame the draining server hands back, redials with backoff, resumes
// the session from the snapshot, and continues streaming from the next
// unprocessed interval — and -check still demands bit-identity across
// the migration, making phasefeed the live rolling-restart harness.
//
// With -batch N each node packs its samples N to a Batch frame (by
// default every sample is sent at once, as a batch of one); the server
// coalesces its prediction replies either way. The prediction stream
// is bit-identical at any batch size, so -check composes with -batch.
//
// With -open the harness switches from windowed lockstep to a true
// open-loop load generator: nodes stream at the -target aggregate rate
// (full speed when 0) without bounding samples in flight, and the
// summary reports the achieved rate, the shed count, and p50/p99 reply
// latency. Overload sheds samples by design (drop-oldest), which forks
// the prediction stream from the local run, so -check is disabled in
// open mode — throughput honesty and bit-identity are separate runs.
//
// Usage:
//
//	phasefeed -addr HOST:PORT [-nodes 4] [-workload mcf_inp]
//	          [-intervals 400] [-spec gpht_8_128] [-rate 0]
//	          [-seed 1] [-check] [-resume] [-timeout 60s]
//	          [-batch 0] [-flush 500us] [-open] [-target 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/kernelsim"
	"phasemon/internal/phaseclient"
	"phasemon/internal/wcache"
	"phasemon/internal/wire"
	"phasemon/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "", "phased server address (required)")
		nodes     = flag.Int("nodes", 4, "concurrent simulated nodes")
		profile   = flag.String("workload", "mcf_inp", "workload profile each node replays")
		intervals = flag.Int("intervals", 400, "sampling intervals per node")
		spec      = flag.String("spec", "gpht_8_128", "predictor spec to negotiate")
		rate      = flag.Float64("rate", 0, "samples per second per node (0 = full speed)")
		seed      = flag.Int64("seed", 1, "base workload seed; node i uses seed+i")
		check     = flag.Bool("check", true, "verify streamed predictions are bit-identical to the local run")
		resume    = flag.Bool("resume", false, "open resumable sessions and ride out server drains via snapshot/resume")
		timeout   = flag.Duration("timeout", 60*time.Second, "overall run deadline")
		batch     = flag.Int("batch", 0, "samples per batch frame (0 or 1 = send each sample at once, as a batch of one)")
		flush     = flag.Duration("flush", 0, "longest a partly filled batch waits before it is sent (0 = client default 500us)")
		open      = flag.Bool("open", false, "open-loop mode: no send window; report achieved rate, shed count, reply latency")
		target    = flag.Float64("target", 0, "open-loop aggregate samples/sec across all nodes (0 = full speed)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "phasefeed: -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg := feedConfig{
		addr:   *addr,
		spec:   *spec,
		rate:   *rate,
		check:  *check,
		resume: *resume,
		open:   *open,
		batch:  *batch,
		flush:  *flush,
	}
	if cfg.open {
		if cfg.check {
			fmt.Fprintln(os.Stderr, "phasefeed: -check is off in -open mode: overload sheds samples, which by design forks the prediction stream from the local run")
			cfg.check = false
		}
		if *target > 0 && *nodes > 0 {
			cfg.rate = *target / float64(*nodes)
		}
	}
	ok, err := run(cfg, *nodes, *profile, *intervals, *seed, *timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phasefeed: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// feedConfig is the per-node streaming configuration.
type feedConfig struct {
	addr   string
	spec   string
	rate   float64 // samples per second per node; 0 = full speed
	check  bool
	resume bool
	open   bool
	batch  int
	flush  time.Duration
}

// nodeResult is one node's outcome.
type nodeResult struct {
	samples     int
	sent        int
	predictions int
	mismatches  int
	dropped     uint64
	err         error

	// Open-loop measurements: per-sample send stamps (indexed by
	// sequence number, written with atomics — the receive side reads
	// them without any other synchronization edge), reply latencies,
	// and the stream's wall-clock span.
	sendNs      []int64
	latNs       []int64
	firstSendNs int64
	lastRecvNs  int64
}

func run(cfg feedConfig, nodes int, profileName string, intervals int, seed int64, timeout time.Duration) (bool, error) {
	prof, err := workload.ByName(profileName)
	if err != nil {
		return false, err
	}
	pol, err := governor.PolicyFromSpec(governor.MonitorPrefix + cfg.spec)
	if err != nil {
		return false, err
	}
	trans, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		return false, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	// Every node shares one trace cache: nodes with the same seed reuse
	// the materialized interval stream instead of regenerating it.
	cache := wcache.New(wcache.Config{})
	results := make([]nodeResult, nodes)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = feedNode(ctx, cfg, uint64(i+1), prof, cache,
				workload.Params{Seed: seed + int64(i), Intervals: intervals},
				pol, trans)
		}(i)
	}
	wg.Wait()

	var total nodeResult
	var lats []int64
	var aggRate float64
	ok := true
	for i, r := range results {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "phasefeed: node %d: %v\n", i+1, r.err)
			ok = false
		}
		total.samples += r.samples
		total.sent += r.sent
		total.predictions += r.predictions
		total.mismatches += r.mismatches
		total.dropped += r.dropped
		lats = append(lats, r.latNs...)
		if span := r.lastRecvNs - r.firstSendNs; span > 0 && r.sent > 0 {
			aggRate += float64(r.sent) / (float64(span) / 1e9)
		}
	}
	if total.mismatches > 0 || (cfg.check && total.dropped > 0) {
		ok = false
	}
	if cfg.open {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("phasefeed: open-loop nodes=%d sent=%d answered=%d shed=%d achieved=%.0f/s p50=%v p99=%v ok=%v\n",
			nodes, total.sent, total.predictions, total.dropped, aggRate,
			percentileNs(lats, 50), percentileNs(lats, 99), ok)
		return ok, nil
	}
	fmt.Printf("phasefeed: nodes=%d samples=%d predictions=%d mismatches=%d dropped=%d ok=%v\n",
		nodes, total.samples, total.predictions, total.mismatches, total.dropped, ok)
	return ok, nil
}

// pacer bounds a sender to rate samples/sec without one timer wakeup
// per sample: each wait releases however many sends the elapsed wall
// clock is owed, so pacing stays accurate far past the runtime's
// timer resolution (a per-sample ticker tops out at a few kHz — its
// channel holds one tick, so every missed wakeup is a lost send).
type pacer struct {
	rate  float64
	start time.Time
	sent  int64
	tick  *time.Ticker
}

// newPacer returns a pacer for rate samples/sec; nil (unpaced) when
// rate is zero or negative.
func newPacer(rate float64) *pacer {
	if rate <= 0 {
		return nil
	}
	return &pacer{rate: rate, start: time.Now(), tick: time.NewTicker(time.Millisecond)}
}

func (p *pacer) stop() {
	if p != nil {
		p.tick.Stop()
	}
}

// wait blocks until the next send is within the rate budget, or ctx
// ends; a nil pacer never blocks.
func (p *pacer) wait(ctx context.Context) error {
	if p == nil {
		return nil
	}
	for {
		owed := int64(p.rate*time.Since(p.start).Seconds()) - p.sent
		// Forgive debt beyond 10 ms of budget: a long scheduling stall
		// must not discharge as one queue-blasting catch-up burst.
		if burst := int64(p.rate * 0.01); burst > 0 && owed > burst {
			p.sent += owed - burst
			owed = burst
		}
		if owed > 0 {
			p.sent++
			return nil
		}
		select {
		case <-p.tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// percentileNs reads the pth percentile from ascending-sorted
// nanosecond latencies.
func percentileNs(sorted []int64, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return time.Duration(sorted[i])
}

// feedNode runs one simulated node: local governed run, then stream
// and (optionally) verify. With resume, a server drain mid-stream is
// survived by resuming the session from its snapshot and continuing
// from the next unprocessed interval.
func feedNode(ctx context.Context, cfg feedConfig, id uint64, prof *workload.Profile, cache *wcache.Cache, params workload.Params, pol governor.Policy, trans *dvfs.Translation) nodeResult {
	var res nodeResult
	trace := cache.Get(prof, params)
	local, err := governor.RunContext(ctx, trace.Generator(), pol, governor.Config{})
	if err != nil {
		res.err = fmt.Errorf("local run: %w", err)
		return res
	}
	log := local.Log
	res.samples = len(log)
	if len(log) == 0 {
		return res
	}

	cl := phaseclient.New(phaseclient.Config{
		Addr:          cfg.addr,
		MaxAttempts:   8,
		BatchSize:     cfg.batch,
		FlushInterval: cfg.flush,
	})
	defer cl.Close()
	open := cl.Open
	if cfg.resume {
		open = cl.OpenResumable
	}
	sess, _, err := open(ctx, id, cfg.spec, 100e6)
	if err != nil {
		res.err = fmt.Errorf("open: %w", err)
		return res
	}

	var chk *checker
	if cfg.check {
		chk = newChecker(log, trans)
	}
	start := 0
	for {
		var err error
		if cfg.open {
			err = streamOpen(ctx, sess, log, start, cfg.rate, &res)
		} else {
			err = streamRange(ctx, sess, log, start, cfg.rate, chk, &res)
		}
		if err == nil {
			res.mismatches += chk.lost(len(log))
			break
		}
		// A drained server hands resumable sessions their snapshot just
		// before the stream dies; anything else (or a stateless run) is
		// a hard failure. Presence of the snapshot, not the error text,
		// is the gate: the terminal error can surface either as the
		// wrapped ErrResumable or as a late server error frame.
		snap, ok := sess.Snapshot()
		if !cfg.resume || !ok {
			res.err = err
			return res
		}
		if !errors.Is(err, phaseclient.ErrResumable) && !errors.Is(err, phaseclient.ErrDisconnected) {
			res.err = err
			return res
		}
		state, err := snap.Decode()
		if err != nil {
			res.err = fmt.Errorf("snapshot: %w", err)
			return res
		}
		fmt.Fprintf(os.Stderr, "phasefeed: node %d: server drained at seq %d; resuming\n", id, state.LastSeq)
		sess, err = resumeSession(ctx, cl, snap)
		if err != nil {
			res.err = fmt.Errorf("resume: %w", err)
			return res
		}
		if state.LastSeq == wire.NoSamples {
			start = 0
		} else {
			start = int(state.LastSeq) + 1
		}
		res.mismatches += chk.lost(start)
	}
	if d, err := sess.Drain(ctx); err != nil {
		res.err = fmt.Errorf("drain: %w", err)
	} else if want := uint64(len(log) - 1); d.LastSeq != want {
		res.err = fmt.Errorf("drain LastSeq = %d, want %d", d.LastSeq, want)
	}
	return res
}

// resumeSession restores a drained session, retrying transient
// failures: during a rolling restart the Restore can race the old
// process (still draining, answers overloaded) or the replacement
// (not yet listening), both of which resolve by waiting. Anything
// else — a rejected snapshot, a bad spec — fails immediately.
func resumeSession(ctx context.Context, cl *phaseclient.Client, snap phaseclient.SessionSnapshot) (*phaseclient.Session, error) {
	var err error
	for {
		var sess *phaseclient.Session
		sess, _, err = cl.Resume(ctx, snap)
		if err == nil {
			return sess, nil
		}
		var serr *phaseclient.ServerError
		retryable := errors.Is(err, phaseclient.ErrDisconnected) ||
			(errors.As(err, &serr) && serr.Code == wire.CodeOverloaded)
		if !retryable {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w (last error: %v)", ctx.Err(), err)
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// streamRange streams log[start:] over the session and receives until
// the final sample's prediction, accumulating into res and scoring
// each reply with chk (nil when unchecked). It returns nil on
// completion and the session's terminal error otherwise.
func streamRange(ctx context.Context, sess *phaseclient.Session, log []kernelsim.Entry, start int, rate float64, chk *checker, res *nodeResult) error {
	// Windowed lockstep: at most window samples outstanding, so a
	// checking run can never overflow the server's bounded queue (which
	// would evict samples and — by design — fork the prediction
	// sequence away from the local run).
	const window = 32
	tokens := make(chan struct{}, window)
	sendErr := make(chan error, 1)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		pace := newPacer(rate)
		defer pace.stop()
		for i := start; i < len(log); i++ {
			e := log[i]
			if err := pace.wait(sctx); err != nil {
				sendErr <- err
				return
			}
			select {
			case tokens <- struct{}{}:
			case <-sctx.Done():
				sendErr <- sctx.Err()
				return
			}
			if err := sess.Send(wire.Sample{
				Seq:    uint64(i),
				Uops:   e.Uops,
				MemTx:  e.MemTx,
				Cycles: e.Cycles,
			}); err != nil {
				sendErr <- fmt.Errorf("send #%d: %w", i, err)
				return
			}
			res.sent++
		}
		sendErr <- nil
	}()

	// Receive until the final sample's prediction: drop-oldest always
	// keeps the newest sample and drain flushes the queue, so the last
	// sequence number is guaranteed to be answered. Every prediction
	// releases its own window token plus one per sample evicted since
	// the previous prediction, so the sender can never wedge.
	prevDropped := res.dropped
	for {
		p, err := sess.Recv(ctx)
		if err != nil {
			cancel()
			return fmt.Errorf("recv after %d predictions: %w", res.predictions, err)
		}
		res.predictions++
		res.dropped = p.Dropped
		for j := 0; j < 1+int(p.Dropped-prevDropped); j++ {
			select {
			case <-tokens:
			default:
			}
		}
		prevDropped = p.Dropped
		res.mismatches += chk.verify(&p)
		if p.Seq == uint64(len(log)-1) {
			break
		}
	}
	return <-sendErr
}

// streamOpen streams log[start:] without a send window — the server's
// drop-oldest queue, not sender lockstep, absorbs overload — pacing at
// rate samples/sec (full speed when 0), and measures the reply latency
// of every answered prediction. Termination matches streamRange:
// drop-oldest always keeps the newest sample, so the final sequence
// number is always answered.
func streamOpen(ctx context.Context, sess *phaseclient.Session, log []kernelsim.Entry, start int, rate float64, res *nodeResult) error {
	if res.sendNs == nil {
		res.sendNs = make([]int64, len(log))
	}
	sendErr := make(chan error, 1)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		pace := newPacer(rate)
		defer pace.stop()
		for i := start; i < len(log); i++ {
			e := log[i]
			if err := pace.wait(sctx); err != nil {
				sendErr <- err
				return
			}
			atomic.StoreInt64(&res.sendNs[i], time.Now().UnixNano())
			if err := sess.Send(wire.Sample{
				Seq:    uint64(i),
				Uops:   e.Uops,
				MemTx:  e.MemTx,
				Cycles: e.Cycles,
			}); err != nil {
				sendErr <- fmt.Errorf("send #%d: %w", i, err)
				return
			}
			res.sent++
		}
		sendErr <- nil
	}()

	if res.firstSendNs == 0 {
		res.firstSendNs = time.Now().UnixNano()
	}
	for {
		p, err := sess.Recv(ctx)
		if err != nil {
			cancel()
			return fmt.Errorf("recv after %d predictions: %w", res.predictions, err)
		}
		now := time.Now().UnixNano()
		res.predictions++
		res.dropped = p.Dropped
		if i := int(p.Seq); i < len(log) {
			if sent := atomic.LoadInt64(&res.sendNs[i]); sent > 0 {
				res.latNs = append(res.latNs, now-sent)
			}
		}
		if p.Seq == uint64(len(log)-1) {
			res.lastRecvNs = now
			break
		}
	}
	return <-sendErr
}

// checker is a node's lockstep check against its local run: every
// sample must be answered exactly once, in sequence order, with the
// local run's phase, prediction and setting. A nil checker checks
// nothing.
type checker struct {
	log      []kernelsim.Entry
	trans    *dvfs.Translation
	answered []bool // answered[i]: a reply for sample i has arrived
	next     int    // one past the newest sample answered
	from     int    // where the next lost count starts
}

func newChecker(log []kernelsim.Entry, trans *dvfs.Translation) *checker {
	return &checker{log: log, trans: trans, answered: make([]bool, len(log))}
}

// verify scores one reply: 1 when it answers no sample of the log, a
// sample already answered (a repeat), or one before a sample already
// answered (out of order), or when its phase, prediction or setting
// differs from the local run's; 0 otherwise. A reply that skips ahead
// scores 0 here: the samples it passed count when lost closes the
// stream, unless their replies arrive late, which scores them here.
func (c *checker) verify(p *wire.Prediction) int {
	if c == nil {
		return 0
	}
	if p.Seq >= uint64(len(c.log)) || c.answered[p.Seq] {
		return 1
	}
	i := int(p.Seq)
	c.answered[i] = true
	late := i < c.next
	c.next = max(c.next, i+1)
	e := c.log[i]
	if late || p.Actual != uint8(e.Actual) || p.Next != uint8(e.Predicted) ||
		p.Setting != uint8(c.trans.Setting(e.Predicted)) {
		return 1
	}
	return 0
}

// lost closes the stream up to sample to — the end of the log, or,
// when a drained session resumes, the snapshot's LastSeq+1, the sample
// the server expects next — and counts the samples before it that no
// reply answered. Replies to them arriving later score as out of
// order.
func (c *checker) lost(to int) int {
	if c == nil {
		return 0
	}
	n := 0
	for _, ok := range c.answered[c.from:to] {
		if !ok {
			n++
		}
	}
	c.from, c.next = to, max(c.next, to)
	return n
}
