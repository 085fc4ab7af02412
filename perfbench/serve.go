package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/phase"
	"phasemon/internal/phaseclient"
	"phasemon/internal/wcache"
	"phasemon/internal/wire"
	"phasemon/internal/workload"
)

// Serving parameters shared by stream and tick.
const (
	conns        = 2     // phaseclient connections of the generator
	window       = 64    // samples a stream session keeps outstanding: phased's QueueDepth
	granularity  = 100e6 // uops per sampling interval, as in the paper
	setupRepeats = 9     // server bring-ups per run; setup_s is their median
	// latEvery keeps stream's latency record small: every 8th reply
	// is timed, a few million per run.
	latEvery = 8
)

// paperWorkloads are the traces the nodes replay and the grid races on.
var paperWorkloads = []string{"applu_in", "gzip_graphic", "swim_in", "mcf_inp"}

// epoch anchors mono: time.Since reads the monotonic clock.
var epoch = time.Now()

// mono is nanoseconds on the monotonic clock.
func mono() int64 { return int64(time.Since(epoch)) }

// expect is what a local governed run predicted for one interval.
type expect struct{ actual, next, setting uint8 }

// nodeTrace is one simulated node's recorded input and the local run's
// prediction for every sample of it.
type nodeTrace struct {
	samples []wire.Sample
	want    []expect
}

// nodeParams names node k's trace: a paper workload with a seed of its
// own, derived from the run seed.
func nodeParams(seed int64, k, length int) (*workload.Profile, workload.Params, error) {
	p, err := workload.ByName(paperWorkloads[k%len(paperWorkloads)])
	return p, workload.Params{Seed: seed*1_000_003 + int64(k), Intervals: length}, err
}

// prepareTraces synthesizes every node's trace and runs it locally
// through the governor, monitoring only, with the spec the server will
// serve: phasefeed's -check rule. It runs before anything is timed.
func prepareTraces(seed int64, nodes, length int, cache *wcache.Cache) ([]nodeTrace, error) {
	pol, err := governor.PolicyFromSpec(governor.MonitorPrefix + servingSpec)
	if err != nil {
		return nil, err
	}
	trans, err := dvfs.Identity(dvfs.PentiumM(), phase.Default().NumPhases())
	if err != nil {
		return nil, err
	}
	out := make([]nodeTrace, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < nodes; k += workers {
				prof, params, err := nodeParams(seed, k, length)
				if err != nil {
					errs[k] = err
					return
				}
				res, err := governor.RunContext(context.Background(), cache.Get(prof, params).Generator(), pol, governor.Config{})
				if err != nil {
					errs[k] = fmt.Errorf("local run of node %d: %w", k, err)
					return
				}
				tr := nodeTrace{samples: make([]wire.Sample, len(res.Log)), want: make([]expect, len(res.Log))}
				for i, e := range res.Log {
					tr.samples[i] = wire.Sample{Seq: uint64(i), Uops: e.Uops, MemTx: e.MemTx, Cycles: e.Cycles}
					tr.want[i] = expect{uint8(e.Actual), uint8(e.Predicted), uint8(trans.Setting(e.Predicted))}
				}
				out[k] = tr
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// check reports whether p is the correct answer to sample seq: in
// order, nothing shed, and bit-identical to the local run.
func check(p *wire.Prediction, seq int, want expect) bool {
	return p.Seq == uint64(seq) && p.Dropped == 0 &&
		p.Actual == want.actual && p.Next == want.next && p.Setting == want.setting
}

// serveOpts configures one serving measurement.
type serveOpts struct {
	bin     string
	nodes   int           // sessions, spread over conns connections
	batch   int           // phaseclient BatchSize; 0 sends one frame per sample
	period  time.Duration // tick: each node's sample period; 0 runs stream
	seconds time.Duration
	traced  bool // record spans around phaseclient.Send
}

// windows slices a measurement into n equal windows from start.
// Per-window figures are summarised by their median, so a burst of
// interference from outside the benchmark moves one window, not the
// run.
type windows struct {
	start, length int64
	n             int
}

// windowsPerSecond sets the window length: each tick window holds
// 3200 replies, so its p99 has 32 beyond it.
const windowsPerSecond = 4

func newWindows(start int64, d time.Duration) windows {
	n := max(int(d*windowsPerSecond/time.Second), 5)
	return windows{start: start, length: int64(d) / int64(n), n: n}
}

// end is when the last window closes.
func (w windows) end() int64 { return w.start + int64(w.n)*w.length }

// of is the window holding t; outside is n.
func (w windows) of(t int64) uint16 {
	if t < w.start || t >= w.end() {
		return uint16(w.n)
	}
	return uint16((t - w.start) / w.length)
}

// nodeStats is one node's tally. In stream the node's goroutine owns
// it; in tick the pacer owns sent and send, the receiver the rest.
type nodeStats struct {
	sent, answered, failed int64
	inWindows              int64    // replies received inside the windows
	lat                    []uint32 // reply latency, ns
	win                    []uint16 // window of each lat
	runs                   []float64
	send                   spanLog
	lastRecv               int64
}

// answer counts one checked reply received at now, recording its
// latency lat in window win unless lat < 0.
func (st *nodeStats) answer(ok bool, w windows, now, lat int64, win uint16) {
	if !ok {
		st.failed++
	}
	if lat >= 0 {
		st.lat = append(st.lat, uint32(min(lat, math.MaxUint32)))
		st.win = append(st.win, win)
	}
	st.answered++
	if int(w.of(now)) < w.n {
		st.inWindows++
	}
}

// serveResult is everything one serving measurement observed.
type serveResult struct {
	setup          []float64 // seconds, one per bring-up
	sent, answered int64
	failed         int64
	inWindows      int64
	lat            [][]uint32 // sorted reply latencies (ns) of each window
	late           []uint32   // sorted tick pacer lateness, ns
	runs           []float64
	wall           time.Duration
	srv0, srv1     procCounters
	cliCPU         time.Duration
	metrics        scrape
	send           spanLog
}

// selfCPU is this process's user + system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// fleetConn is the generator's side of one server bring-up.
type fleetConn struct {
	srv     *server
	clients []*phaseclient.Client
	sess    []*phaseclient.Session
}

// bringUp execs phased and opens every node's session over conns
// connections; it returns once every session is acked.
func bringUp(ctx context.Context, o serveOpts) (*fleetConn, error) {
	srv, err := startServer(o.bin)
	if err != nil {
		return nil, err
	}
	f := &fleetConn{srv: srv, sess: make([]*phaseclient.Session, o.nodes)}
	for c := 0; c < conns; c++ {
		f.clients = append(f.clients, phaseclient.New(phaseclient.Config{
			Addr: srv.addr, MaxAttempts: 3, BatchSize: o.batch,
		}))
	}
	errs := make([]error, o.nodes)
	var wg sync.WaitGroup
	for k := 0; k < o.nodes; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			f.sess[k], _, errs[k] = f.clients[k%conns].Open(ctx, uint64(k+1), servingSpec, granularity)
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.close()
		srv.kill()
		return nil, fmt.Errorf("open sessions: %w", err)
	}
	return f, nil
}

// shutdown closes the connections and stops the server; mustDrain
// requires a clean drain (see server.stop).
func (f *fleetConn) shutdown(mustDrain bool) error {
	f.close()
	return f.srv.stop(mustDrain)
}

func (f *fleetConn) close() {
	for _, c := range f.clients {
		_ = c.Close()
	}
}

// measureServe brings the server up setupRepeats times, timing each,
// keeps the last bring-up, and drives it for o.seconds.
func measureServe(o serveOpts, traces []nodeTrace) (serveResult, error) {
	var res serveResult
	ctx, cancel := context.WithTimeout(context.Background(), o.seconds+90*time.Second)
	defer cancel()
	var f *fleetConn
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		g, err := bringUp(ctx, o)
		if err != nil {
			return res, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			f = g
		} else if err := g.shutdown(false); err != nil {
			return res, err
		}
	}
	ok := false
	defer func() {
		if !ok {
			f.close()
			f.srv.kill()
		}
	}()

	var err error
	if res.srv0, err = readProc(f.srv.pid()); err != nil {
		return res, err
	}
	cpu0 := selfCPU()
	stats := make([]nodeStats, o.nodes)
	// Let every goroutine park before the first window opens.
	w := newWindows(mono()+int64(5*time.Millisecond), o.seconds)
	if o.period > 0 {
		err = runTick(ctx, o, w, f, traces, stats, &res)
	} else {
		err = runStream(ctx, o, w, f, traces, stats, &res)
	}
	if err != nil {
		return res, err
	}
	res.cliCPU = selfCPU() - cpu0
	if res.srv1, err = readProc(f.srv.pid()); err != nil {
		return res, err
	}
	if res.metrics, err = f.srv.scrapeMetrics(); err != nil {
		return res, err
	}
	ok = true
	if err := f.shutdown(true); err != nil {
		return res, err
	}

	res.lat = make([][]uint32, w.n)
	for i := range stats {
		s := &stats[i]
		res.sent += s.sent
		res.answered += s.answered
		res.failed += s.failed
		res.inWindows += s.inWindows
		res.runs = append(res.runs, s.runs...)
		res.send.merge(&s.send)
		for j, l := range s.lat {
			if b := s.win[j]; int(b) < w.n {
				res.lat[b] = append(res.lat[b], l)
			}
		}
		s.lat, s.win = nil, nil
	}
	for b := range res.lat {
		res.lat[b] = sortedCopy(res.lat[b])
	}
	// A sample sent but never answered is a failure too.
	res.failed += res.sent - res.answered
	return res, nil
}

// runStream is the closed loop: every node keeps up to window samples
// outstanding, checks each reply, and replays its trace in a fresh
// session each time it reaches the end, until the last window closes.
func runStream(ctx context.Context, o serveOpts, w windows, f *fleetConn, traces []nodeTrace, stats []nodeStats, res *serveResult) error {
	var stop atomic.Bool
	timer := time.AfterFunc(time.Duration(w.end()-mono()), func() { stop.Store(true) })
	defer timer.Stop()
	errs := make([]error, o.nodes)
	var wg sync.WaitGroup
	for k := 0; k < o.nodes; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = streamNode(ctx, f.clients[k%conns], f.sess[k], uint64(k+1), uint64(o.nodes),
				&traces[k], w, &stop, o.traced, &stats[k])
		}(k)
	}
	wg.Wait()
	res.wall = time.Duration(w.end() - w.start)
	return errors.Join(errs...)
}

// streamNode is one closed-loop node: it replays its trace, each time
// in a fresh session, until stop. Its session id advances by idStride
// on every replay so ids never collide across nodes.
func streamNode(ctx context.Context, cl *phaseclient.Client, sess *phaseclient.Session, id, idStride uint64,
	tr *nodeTrace, w windows, stop *atomic.Bool, traced bool, st *nodeStats) error {
	for replay := 0; ; replay++ {
		begin := mono()
		if replay > 0 {
			if stop.Load() {
				return nil
			}
			id += idStride
			var err error
			if sess, _, err = cl.Open(ctx, id, servingSpec, granularity); err != nil {
				return fmt.Errorf("reopen session %d: %w", id, err)
			}
		}
		complete, err := streamReplay(ctx, sess, tr, w, stop, traced, st)
		if err != nil {
			return fmt.Errorf("session %d: %w", id, err)
		}
		if complete {
			st.runs = append(st.runs, float64(mono()-begin)/1e9)
		}
	}
}

// streamReplay streams tr once over sess with up to window samples
// outstanding, checks every reply, and drains the session. It stops
// sending early when stop is set, and reports whether the whole trace
// was answered. Every latEvery-th reply's latency is recorded.
func streamReplay(ctx context.Context, sess *phaseclient.Session, tr *nodeTrace, w windows,
	stop *atomic.Bool, traced bool, st *nodeStats) (bool, error) {
	n := len(tr.samples)
	var stamp [window]int64
	next, got := 0, 0
	for {
		for next < n && next-got < window && !stop.Load() {
			t := mono()
			stamp[next%window] = t
			if err := sess.Send(tr.samples[next]); err != nil {
				return false, fmt.Errorf("send #%d: %w", next, err)
			}
			if traced {
				st.send.add(t, mono())
			}
			next++
			st.sent++
		}
		if got == next {
			break
		}
		p, err := sess.Recv(ctx)
		if err != nil {
			return false, fmt.Errorf("recv #%d: %w", got, err)
		}
		now := mono()
		lat := int64(-1)
		if got%latEvery == 0 {
			lat = now - stamp[got%window]
		}
		st.answer(check(&p, got, tr.want[got]), w, now, lat, w.of(now))
		got++
	}
	return got == n, drain(ctx, sess, next, st)
}

// drain closes a session and counts a failure unless the server
// processed exactly the sent samples.
func drain(ctx context.Context, sess *phaseclient.Session, sent int, st *nodeStats) error {
	d, err := sess.Drain(ctx)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	want := uint64(sent - 1)
	if sent == 0 {
		want = wire.NoSamples
	}
	if d.LastSeq != want {
		st.failed++
	}
	return nil
}

// runTick is the open loop: every node's sample is due once per
// o.period, phases spread evenly over the period, sent by one pacing
// goroutine per connection in due-time order. Replies are timed from
// the due time, and fall in the window of their due time.
func runTick(ctx context.Context, o serveOpts, w windows, f *fleetConn, traces []nodeTrace, stats []nodeStats, res *serveResult) error {
	samples := len(traces[0].samples)
	scheds := make([]schedule, conns)
	for c := range scheds {
		scheds[c] = newSchedule(w.start, o.period, o.nodes, conns, c, samples)
	}
	lates := make([][]uint32, conns)
	errs := make([]error, o.nodes+conns)
	var wg sync.WaitGroup
	for k := 0; k < o.nodes; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sch, node := scheds[k%conns], k/conns
			st, sess, tr := &stats[k], f.sess[k], &traces[k]
			for j := 0; j < samples; j++ {
				p, err := sess.Recv(ctx)
				if err != nil {
					errs[k] = fmt.Errorf("node %d recv #%d: %w", k, j, err)
					return
				}
				now, due := mono(), sch.due(node, j)
				st.answer(check(&p, j, tr.want[j]), w, now, now-due, w.of(due))
				st.lastRecv = now
			}
			st.runs = append(st.runs, float64(st.lastRecv-sch.due(node, 0))/1e9)
			errs[k] = drain(ctx, sess, samples, st)
		}(k)
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			timer, err := newKernelTimer()
			if err != nil {
				errs[o.nodes+c] = err
				return
			}
			defer timer.close()
			errs[o.nodes+c] = pace(ctx, scheds[c], mono, timer.sleep, func(node, j int, late int64) error {
				k := node*conns + c
				lates[c] = append(lates[c], uint32(min(late, math.MaxUint32)))
				t := mono()
				err := f.sess[k].Send(traces[k].samples[j])
				if o.traced {
					stats[k].send.add(t, mono())
				}
				stats[k].sent++
				return err
			})
		}(c)
	}
	wg.Wait()
	var last int64
	var late []uint32
	for k := range stats {
		last = max(last, stats[k].lastRecv)
	}
	for _, l := range lates {
		late = append(late, l...)
	}
	res.late = sortedCopy(late)
	res.wall = time.Duration(w.end() - w.start)
	return errors.Join(errs...)
}
