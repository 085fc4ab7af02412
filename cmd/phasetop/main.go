// Command phasetop is the fleet-rollup terminal view: it subscribes
// to the Rollup streams of one or more phased nodes, merges them with
// agg.Merger, and renders a live summary — per-class occupancy with
// hit rates, DVFS-setting occupancy with the V²f power proxy, shed
// rate, serving-latency histogram, and the greediest sessions.
//
// Modes:
//
//	phasetop -addr host:port[,host:port...]   live view, ANSI-refreshed
//	phasetop -addr ... -once [-json]          one snapshot, then exit
//	phasetop -synth [-sessions N] [-intervals N] [-shards N] [-workers N]
//	         [-seed N] [-bucket 1s] [-once] [-json]
//
// The -synth mode replays agg.Synth's deterministic feed instead of
// dialing anything: for a given seed the -once -json snapshot is
// byte-identical at any shard or worker count — the pipeline's
// determinism contract, pinned by this command's tests.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"phasemon/internal/agg"
	"phasemon/internal/phaseclient"
	"phasemon/internal/wire"
)

func main() {
	var (
		addrs     = flag.String("addr", "", "comma-separated phased node addresses to subscribe to")
		synth     = flag.Bool("synth", false, "render a deterministic synthetic feed instead of dialing nodes")
		sessions  = flag.Int("sessions", 10_000, "synth: session count")
		intervals = flag.Int("intervals", 50, "synth: intervals per session")
		shards    = flag.Int("shards", 4, "synth: aggregation shard count (must not affect output)")
		workers   = flag.Int("workers", 4, "synth: feeder goroutines (must not affect output)")
		seed      = flag.Uint64("seed", 1, "synth: feed seed")
		bucket    = flag.Duration("bucket", time.Second, "synth: rollup bucket length")
		topN      = flag.Int("top", 8, "top-session list length")
		refresh   = flag.Duration("interval", 2*time.Second, "live view refresh period")
		once      = flag.Bool("once", false, "print one snapshot and exit")
		jsonOut   = flag.Bool("json", false, "emit the snapshot as JSON instead of the table")
	)
	flag.Parse()
	if err := run(os.Stdout, options{
		addrs: *addrs, synth: *synth,
		sessions: *sessions, intervals: *intervals,
		shards: *shards, workers: *workers,
		seed: *seed, bucket: *bucket,
		topN: *topN, refresh: *refresh,
		once: *once, jsonOut: *jsonOut,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "phasetop: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	addrs               string
	synth               bool
	sessions, intervals int
	shards, workers     int
	seed                uint64
	bucket              time.Duration
	topN                int
	refresh             time.Duration
	once                bool
	jsonOut             bool
}

func run(w io.Writer, o options) error {
	if o.synth {
		return runSynth(w, o)
	}
	if o.addrs == "" {
		return fmt.Errorf("need -addr (or -synth); see -h")
	}
	return runLive(w, o)
}

// runSynth replays the deterministic synthetic feed and renders its
// snapshot. The merger retains the whole feed span so the view is
// exact, and the rollups take the full wire encode/decode round trip
// — the snapshot covers the same path a live fleet exercises.
func runSynth(w io.Writer, o options) error {
	m, rollups, err := synthMerge(o)
	if err != nil {
		return err
	}
	v := m.Snapshot(o.topN)
	if o.jsonOut {
		return writeJSON(w, v)
	}
	fmt.Fprintf(w, "phasetop — synthetic feed: %d sessions × %d intervals, seed %d, %d rollups\n\n",
		o.sessions, o.intervals, o.seed, rollups)
	render(w, v, o.topN)
	return nil
}

// synthMerge builds the merged synthetic state: feed → aggregator →
// encoded Rollup frames → decoded → merger.
func synthMerge(o options) (*agg.Merger, uint64, error) {
	sy := agg.Synth{
		Sessions:  o.sessions,
		Intervals: o.intervals,
		Seed:      o.seed,
	}
	bucketNs := o.bucket.Nanoseconds()
	if bucketNs < 1 {
		bucketNs = agg.DefaultBucketLenNs
	}
	a := agg.New(agg.Config{
		NodeID:      1,
		Shards:      o.shards,
		BucketLenNs: bucketNs,
		NumBuckets:  sy.SpanBuckets(bucketNs),
	})
	sy.Run(a, o.workers)

	m := agg.NewMerger(sy.SpanBuckets(bucketNs))
	var buf []byte
	var count uint64
	var derr error
	var rd bytes.Reader
	dec := wire.NewDecoder(&rd)
	a.FlushAll(func(r *wire.Rollup) {
		buf = wire.AppendRollup(buf[:0], r)
		rd.Reset(buf)
		kind, payload, err := dec.Next()
		if err != nil || kind != wire.KindRollup {
			derr = fmt.Errorf("rollup frame round-trip: kind %v, %v", kind, err)
			return
		}
		var back wire.Rollup
		if err := wire.DecodeRollup(payload, &back); err != nil {
			derr = fmt.Errorf("rollup decode: %w", err)
			return
		}
		m.Add(&back)
		count++
	})
	return m, count, derr
}

// runLive subscribes to every node and renders the merged view until
// interrupted (or once, with -once).
func runLive(w io.Writer, o options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m := agg.NewMerger(0)
	addrs := strings.Split(o.addrs, ",")
	for i, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		cl := phaseclient.New(phaseclient.Config{Addr: addr})
		defer cl.Close()
		sub, err := cl.SubscribeRollups(ctx, uint64(i+1))
		if err != nil {
			return fmt.Errorf("subscribe %s: %w", addr, err)
		}
		go func(sub *phaseclient.RollupSub) {
			for {
				r, err := sub.Recv(ctx)
				if err != nil {
					return
				}
				m.Add(&r)
			}
		}(sub)
	}

	tick := time.NewTicker(o.refresh)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		v := m.Snapshot(o.topN)
		if o.once {
			if o.jsonOut {
				return writeJSON(w, v)
			}
			renderHeader(w, v, m)
			render(w, v, o.topN)
			return nil
		}
		fmt.Fprint(w, "\x1b[H\x1b[2J") // home + clear: in-place refresh
		renderHeader(w, v, m)
		render(w, v, o.topN)
	}
}

// renderHeader prints the live-mode status line; the lane and rollup
// counts are operational detail (they vary with each node's sharding)
// and deliberately live outside the View.
func renderHeader(w io.Writer, v agg.View, m *agg.Merger) {
	window := time.Duration(v.WindowEndNs - v.WindowStartNs)
	fmt.Fprintf(w, "phasetop — %d node(s), %d lane(s), %d rollups, window %s\n\n",
		v.Nodes, m.Lanes(), m.Rollups(), window)
}

// render prints the fleet summary tables for one View.
func render(w io.Writer, v agg.View, topN int) {
	fmt.Fprintf(w, "samples %d   starts %d   hit %5.1f%%   shed %5.2f%%   power %0.3f   lat avg %s\n\n",
		v.Samples, v.Starts, 100*v.HitRate, 100*v.ShedRate, v.PowerProxy,
		time.Duration(v.LatencyAvgNs).Round(time.Microsecond))

	fmt.Fprintf(w, "%-14s %12s %7s %7s\n", "CLASS", "SAMPLES", "SHARE", "HIT")
	for _, c := range v.Classes {
		if c.Samples == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %12d %6.1f%% %6.1f%%\n",
			c.Class, c.Samples, 100*c.Share, 100*c.HitRate)
	}

	fmt.Fprintf(w, "\n%-14s %12s %7s\n", "SETTING", "SAMPLES", "SHARE")
	for _, s := range v.Settings {
		if s.Samples == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %12d %6.1f%%\n", s.Setting, s.Samples, 100*s.Share)
	}

	fmt.Fprintf(w, "\n%-14s %12s\n", "LATENCY ≤", "COUNT")
	for _, b := range v.LatencyBuckets {
		if b.Count == 0 {
			continue
		}
		label := "+inf"
		if b.UpperNs >= 0 {
			label = time.Duration(b.UpperNs).String()
		}
		fmt.Fprintf(w, "%-14s %12d\n", label, b.Count)
	}

	top := v.Top
	if len(top) > topN && topN > 0 {
		top = top[:topN]
	}
	fmt.Fprintf(w, "\n%-20s %12s\n", "TOP SESSION", "SAMPLES")
	for _, t := range top {
		fmt.Fprintf(w, "%-20d %12d\n", t.SessionID, t.Samples)
	}
	// Keep ordering obligations honest even if a future Merger change
	// regresses: the list must arrive sorted.
	if !sort.SliceIsSorted(top, func(i, j int) bool { return top[i].Samples > top[j].Samples }) {
		fmt.Fprintln(w, "(warning: top list arrived unsorted)")
	}
}

func writeJSON(w io.Writer, v agg.View) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
