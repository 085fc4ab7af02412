// Package agg is the fleet-rollup pipeline: it turns the firehose of
// per-session prediction outcomes produced by a phased node into
// compact, time-bucketed rollups with bounded memory (ROADMAP item 2,
// DESIGN.md §12).
//
// Each shard (one per phased worker) accumulates (phase.Class ×
// dvfs.Setting) sample/hit/miss counts, shed counts, and a serving-
// latency histogram into a fixed ring of time buckets keyed by the
// instant the caller stamps each sample with. A flusher drains closed
// buckets as wire.Rollup frames; Merger (merge.go) folds rollups from
// any number of shards and nodes back into one fleet view by pure
// integer addition, which is what makes the pipeline deterministic:
// the merged state is a function of the samples alone, never of how
// they were sharded, ordered, or batched.
//
// The accumulate path allocates nothing in steady state (proven by
// testing.AllocsPerRun): buckets and count grids are fixed arrays,
// and the per-bucket session tables grow only on first sight of a
// session, then are reused across bucket generations.
package agg

import (
	"fmt"
	"sync"

	"phasemon/internal/dvfs"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// Outcome classifies what the serving path did with one sample.
// Switches over Outcome are checked for exhaustiveness by
// phasemonlint, like the repo's other closed taxonomies.
type Outcome uint8

const (
	// OutcomeUnscored is a served sample with no prediction verdict:
	// the session's first interval, which the monitor answers before it
	// has anything to score (core.Monitor.Step). Exactly one per
	// session, which makes the bucket's Starts count an exact
	// distinct-session-starts count.
	OutcomeUnscored Outcome = iota
	// OutcomeHit is a served sample whose pending prediction matched
	// the classified phase.
	OutcomeHit
	// OutcomeMiss is a served sample whose pending prediction did not
	// match.
	OutcomeMiss
	// OutcomeShed is a sample dropped by backpressure before serving
	// (drop-oldest on a full session queue).
	OutcomeShed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeUnscored:
		return "unscored"
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeShed:
		return "shed"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Defaults for Config fields left zero.
const (
	DefaultBucketLenNs = int64(1_000_000_000) // 1s buckets
	DefaultNumBuckets  = 8
)

// Config parameterizes an Aggregator.
type Config struct {
	// NodeID identifies the emitting node in Rollup frames.
	NodeID uint64
	// Shards is the number of independent accumulation shards; a
	// phased server uses one per worker. Values below 1 select 1.
	Shards int
	// BucketLenNs is the time-bucket length in nanoseconds; values
	// below 1 select DefaultBucketLenNs.
	BucketLenNs int64
	// NumBuckets is the per-shard bucket-ring size — the bound on how
	// far ingest may run ahead of flush before buckets are dropped.
	// Values below 1 select DefaultNumBuckets.
	NumBuckets int
	// Telemetry receives the pipeline's self-telemetry
	// (phasemon_agg_*); nil disables it.
	Telemetry *telemetry.Hub
}

// bucket is one time window of one shard's accumulation.
type bucket struct {
	used    bool
	startNs int64
	starts  uint64
	shed    uint64
	latSum  uint64
	samples [wire.RollupCells]uint64
	hits    [wire.RollupCells]uint64
	misses  [wire.RollupCells]uint64
	lat     [wire.RollupLatBuckets]uint64
	sess    sessTable
}

// reset clears the bucket's counts for a new window, keeping the
// session table's capacity.
func (b *bucket) reset(startNs int64) {
	b.used = true
	b.startNs = startNs
	b.starts, b.shed, b.latSum = 0, 0, 0
	b.samples = [wire.RollupCells]uint64{}
	b.hits = [wire.RollupCells]uint64{}
	b.misses = [wire.RollupCells]uint64{}
	b.lat = [wire.RollupLatBuckets]uint64{}
	b.sess.reset()
}

// shard is one independently locked accumulation lane.
type shard struct {
	mu      sync.Mutex
	buckets []bucket // guarded by mu
	open    int      // guarded by mu; used buckets, for the open-buckets gauge
	order   []int    // guarded by mu; flush scratch: bucket indices sorted by start
}

// Aggregator accumulates per-sample outcomes into time-bucketed,
// per-shard rollups. IngestAt and IngestBatchAt are safe for
// concurrent use across (and within) shards; FlushBefore/FlushAll
// serialize against ingest per shard and against each other.
type Aggregator struct {
	nodeID      uint64
	bucketLenNs int64
	numBuckets  int
	boundsNs    [wire.RollupLatBuckets - 1]int64
	shards      []shard

	flushMu sync.Mutex
	scratch wire.Rollup // guarded by flushMu

	ingested       *telemetry.Counter
	rollups        *telemetry.Counter
	bucketsDropped *telemetry.Counter
	lateSamples    *telemetry.Counter
	openBuckets    *telemetry.Gauge
}

// New builds an Aggregator from cfg (zero fields select defaults).
func New(cfg Config) *Aggregator {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.BucketLenNs < 1 {
		cfg.BucketLenNs = DefaultBucketLenNs
	}
	if cfg.NumBuckets < 1 {
		cfg.NumBuckets = DefaultNumBuckets
	}
	a := &Aggregator{
		nodeID:      cfg.NodeID,
		bucketLenNs: cfg.BucketLenNs,
		numBuckets:  cfg.NumBuckets,
		shards:      make([]shard, cfg.Shards),
	}
	for i, b := range telemetry.DefaultFrameBounds {
		a.boundsNs[i] = int64(b * 1e9)
	}
	for i := range a.shards {
		a.shards[i].buckets = make([]bucket, cfg.NumBuckets)
		a.shards[i].order = make([]int, 0, cfg.NumBuckets)
	}
	var reg *telemetry.Registry
	if cfg.Telemetry != nil {
		reg = cfg.Telemetry.Registry
	}
	a.ingested = reg.Counter(telemetry.MetricAggIngested)
	a.rollups = reg.Counter(telemetry.MetricAggRollups)
	a.bucketsDropped = reg.Counter(telemetry.MetricAggBucketsDropped)
	a.lateSamples = reg.Counter(telemetry.MetricAggLateSamples)
	a.openBuckets = reg.Gauge(telemetry.MetricAggOpenBuckets)
	return a
}

// ShardFor pins a session id onto a shard by FNV-1a hash. The phased
// server pins each session to the worker ShardFor names, so feeding
// samples by ShardFor reproduces a server's shard assignment exactly.
func (a *Aggregator) ShardFor(sessionID uint64) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (sessionID >> (8 * i)) & 0xFF
		h *= prime64
	}
	return int(h % uint64(len(a.shards)))
}

// cellFor flattens (class, setting) onto a rollup grid cell, clamping
// out-of-taxonomy values onto the ClassUnknown row / fastest-setting
// column so a protocol violation can never index out of the grid.
func cellFor(class phase.Class, setting dvfs.Setting) int {
	c := int(class)
	if c >= wire.RollupClasses {
		c = int(phase.ClassUnknown)
	}
	s := int(setting)
	if s < 0 || s >= wire.RollupSettings {
		s = 0
	}
	return c*wire.RollupSettings + s
}

// IngestAt accumulates one sample outcome observed at nowNs (Unix
// nanoseconds) into the shard's bucket covering that instant. Samples
// older than the shard's bucket ring are counted as late and dropped;
// an unflushed bucket whose slot is reclaimed by a newer window is
// counted as dropped. The path performs no allocation in steady state
// (the per-bucket session table grows only on first sight of a
// session id).
//
//lint:hotpath
func (a *Aggregator) IngestAt(shardIdx int, nowNs int64, sessionID uint64, class phase.Class, setting dvfs.Setting, outcome Outcome, latNs int64) {
	a.ingested.Inc()
	sh := &a.shards[shardIdx]
	sh.mu.Lock()
	b := sh.bucketLocked(a, nowNs)
	if b == nil {
		sh.mu.Unlock()
		a.lateSamples.Inc()
		return
	}
	if b.count(class, setting, outcome) {
		b.observeLatency(a, latNs, 1)
		b.sess.add(sessionID, 1)
	}
	sh.mu.Unlock()
}

// Record is one sample outcome of an IngestBatchAt batch: the
// (class, setting) pair the serving path answered with, and what it
// did with the sample.
type Record struct {
	Class   phase.Class
	Setting dvfs.Setting
	Outcome Outcome
}

// IngestBatchAt accumulates a batch of one session's sample outcomes,
// all observed at nowNs and each carrying serving latency latNs. The
// result is exactly that of calling IngestAt once per record with the
// same arguments — every cell, tally, latency bucket, session count
// and self-telemetry counter — but the shard lock is taken, the bucket
// resolved and the session counted once per batch instead of once per
// sample.
//
//lint:hotpath
func (a *Aggregator) IngestBatchAt(shardIdx int, nowNs int64, sessionID uint64, recs []Record, latNs int64) {
	if len(recs) == 0 {
		return
	}
	a.ingested.Add(uint64(len(recs)))
	sh := &a.shards[shardIdx]
	sh.mu.Lock()
	b := sh.bucketLocked(a, nowNs)
	if b == nil {
		sh.mu.Unlock()
		a.lateSamples.Add(uint64(len(recs)))
		return
	}
	served := uint64(0)
	for i := range recs {
		if b.count(recs[i].Class, recs[i].Setting, recs[i].Outcome) {
			served++
		}
	}
	if served > 0 {
		b.observeLatency(a, latNs, served)
		b.sess.add(sessionID, served)
	}
	sh.mu.Unlock()
}

// bucketLocked resolves the bucket covering nowNs, claiming a free
// slot or reclaiming one that still holds an older, unflushed window
// (counted as a dropped bucket). It returns nil when the sample
// predates the window its slot has moved on to: that bucket is gone,
// and the caller counts the sample late. Callers hold sh.mu.
func (sh *shard) bucketLocked(a *Aggregator, nowNs int64) *bucket {
	startNs := nowNs - floorMod(nowNs, a.bucketLenNs)
	slot := int(floorMod(floorDiv(startNs, a.bucketLenNs), int64(a.numBuckets)))
	b := &sh.buckets[slot]
	switch {
	case !b.used:
		b.reset(startNs)
		sh.open++
	case startNs < b.startNs:
		return nil
	case startNs > b.startNs:
		// The slot still holds an unflushed older window: ingest has
		// lapped the flusher. Reclaim the slot, counting the loss.
		b.reset(startNs)
		a.bucketsDropped.Inc()
	}
	return b
}

// count adds one sample's outcome to the bucket's tallies and reports
// whether the sample was served — only served samples carry a latency
// and count toward their session's top-K share.
func (b *bucket) count(class phase.Class, setting dvfs.Setting, outcome Outcome) bool {
	cell := cellFor(class, setting)
	switch outcome {
	case OutcomeUnscored:
		b.starts++
	case OutcomeHit:
		b.hits[cell]++
	case OutcomeMiss:
		b.misses[cell]++
	case OutcomeShed:
		b.shed++
		return false
	default:
		// Unknown outcomes are counted as shed: the sample existed but
		// was not served.
		b.shed++
		return false
	}
	b.samples[cell]++
	return true
}

// observeLatency adds n served samples of latency latNs to the
// bucket's histogram (telemetry.DefaultFrameBounds, in nanoseconds).
// Counts and the sum are integers, so one call with n equals n calls
// with 1.
func (b *bucket) observeLatency(a *Aggregator, latNs int64, n uint64) {
	if latNs < 0 {
		latNs = 0
	}
	b.latSum += n * uint64(latNs)
	i := 0
	for i < len(a.boundsNs) && latNs > a.boundsNs[i] {
		i++
	}
	b.lat[i] += n
}

// FlushBefore emits every bucket whose window closed strictly before
// nowNs — shard index ascending, then bucket start ascending within a
// shard, a total order so flush output is deterministic — and frees
// the slots. The *wire.Rollup passed to fn is reused across calls;
// encode or copy it before returning. Emitted buckets count toward
// the rollups counter; the open-buckets gauge is refreshed.
func (a *Aggregator) FlushBefore(nowNs int64, fn func(*wire.Rollup)) {
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	open := 0
	for si := range a.shards {
		sh := &a.shards[si]
		sh.mu.Lock()
		sh.order = sh.order[:0]
		for bi := range sh.buckets {
			if sh.buckets[bi].used && sh.buckets[bi].startNs+a.bucketLenNs <= nowNs {
				sh.order = append(sh.order, bi)
			}
		}
		// Insertion sort by window start: the ring is small and the
		// slice is scratch, so this stays allocation-free.
		for i := 1; i < len(sh.order); i++ {
			for j := i; j > 0 && sh.buckets[sh.order[j]].startNs < sh.buckets[sh.order[j-1]].startNs; j-- {
				sh.order[j], sh.order[j-1] = sh.order[j-1], sh.order[j]
			}
		}
		for _, bi := range sh.order {
			b := &sh.buckets[bi]
			a.fillRollup(&a.scratch, uint32(si), b)
			b.used = false
			sh.open--
			// The callback runs under the shard lock: flushes are rare
			// (once per bucket window) and callers only encode into a
			// buffer, so blocking this shard's ingest briefly is cheaper
			// than copying the 1.2 KiB grid to release the lock.
			fn(&a.scratch)
			a.rollups.Inc()
		}
		open += sh.open
		sh.mu.Unlock()
	}
	a.openBuckets.Set(float64(open))
}

// FlushAll emits every open bucket regardless of its window — the
// shutdown path, so a draining node never discards partial buckets.
func (a *Aggregator) FlushAll(fn func(*wire.Rollup)) {
	// All windows close before the far future; avoid overflow in the
	// cutoff comparison by backing off one bucket length.
	const maxInt64 = int64(^uint64(0) >> 1)
	a.FlushBefore(maxInt64-a.bucketLenNs, fn)
}

// fillRollup materializes one bucket into r.
func (a *Aggregator) fillRollup(r *wire.Rollup, shard uint32, b *bucket) {
	r.NodeID = a.nodeID
	r.Shard = shard
	r.BucketStart = uint64(b.startNs)
	r.BucketLenNs = uint64(a.bucketLenNs)
	r.Starts = b.starts
	r.Shed = b.shed
	r.LatSumNs = b.latSum
	r.Samples = b.samples
	r.Hits = b.hits
	r.Misses = b.misses
	r.LatCounts = b.lat
	b.sess.topK(&r.Top)
}

// floorDiv is integer division rounding toward negative infinity, so
// bucket alignment is correct for pre-epoch timestamps too.
func floorDiv(x, y int64) int64 {
	q := x / y
	if x%y != 0 && (x < 0) != (y < 0) {
		q--
	}
	return q
}

// floorMod is the remainder matching floorDiv (always in [0, y)).
func floorMod(x, y int64) int64 { return x - floorDiv(x, y)*y }
