package agg

import (
	"sort"
	"strconv"
	"sync"

	"phasemon/internal/dvfs"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wire"
)

// DefaultRetainBuckets bounds how many time buckets a Merger keeps
// per-bucket detail (top-session candidates) for. Older buckets are
// evicted; lifetime totals are unaffected.
const DefaultRetainBuckets = 64

// mergeBucket is the per-time-window merge state: candidate top
// sessions from every contributing shard and node. Counts are exact
// for every listed session — a session is pinned to one shard, so its
// per-bucket count in that shard's rollup is its whole per-node
// count, and cross-node sums add complete per-node counts.
type mergeBucket struct {
	startNs int64
	lenNs   int64
	top     map[uint64]uint64
}

// laneKey identifies one (node, shard) rollup producer.
type laneKey struct {
	node  uint64
	shard uint32
}

// Merger folds Rollup frames from any number of shards and nodes into
// one fleet view. All accumulation is integer addition, so the merged
// state is independent of frame arrival order, shard count, and node
// count; the floating-point fields of a View are derived from those
// integers in fixed order at snapshot time. Safe for concurrent use.
type Merger struct {
	mu      sync.Mutex
	retain  int
	rollups uint64 // guarded by mu

	starts, shed, latSum uint64                        // guarded by mu
	samples              [wire.RollupCells]uint64      // guarded by mu
	hits                 [wire.RollupCells]uint64      // guarded by mu
	misses               [wire.RollupCells]uint64      // guarded by mu
	lat                  [wire.RollupLatBuckets]uint64 // guarded by mu

	buckets map[int64]*mergeBucket // guarded by mu
	lanes   map[laneKey]struct{}   // guarded by mu
	nodes   map[uint64]struct{}    // guarded by mu
}

// NewMerger builds a Merger retaining per-bucket detail for at most
// retainBuckets windows (values below 1 select DefaultRetainBuckets).
func NewMerger(retainBuckets int) *Merger {
	if retainBuckets < 1 {
		retainBuckets = DefaultRetainBuckets
	}
	return &Merger{
		retain:  retainBuckets,
		buckets: make(map[int64]*mergeBucket),
		lanes:   make(map[laneKey]struct{}),
		nodes:   make(map[uint64]struct{}),
	}
}

// Add merges one rollup frame.
func (m *Merger) Add(r *wire.Rollup) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rollups++
	m.starts += r.Starts
	m.shed += r.Shed
	m.latSum += r.LatSumNs
	for i := range r.Samples {
		m.samples[i] += r.Samples[i]
		m.hits[i] += r.Hits[i]
		m.misses[i] += r.Misses[i]
	}
	for i := range r.LatCounts {
		m.lat[i] += r.LatCounts[i]
	}
	m.lanes[laneKey{r.NodeID, r.Shard}] = struct{}{}
	m.nodes[r.NodeID] = struct{}{}

	start := int64(r.BucketStart)
	b := m.buckets[start]
	if b == nil {
		b = &mergeBucket{startNs: start, lenNs: int64(r.BucketLenNs), top: make(map[uint64]uint64)}
		m.buckets[start] = b
		m.evictLocked()
	}
	for _, t := range r.Top {
		if t.Samples > 0 {
			b.top[t.SessionID] += t.Samples
		}
	}
}

// evictLocked drops the oldest retained buckets beyond the cap. The
// minimum start is unique, so eviction is deterministic despite map
// iteration.
func (m *Merger) evictLocked() {
	for len(m.buckets) > m.retain {
		first := true
		var oldest int64
		for start := range m.buckets {
			if first || start < oldest {
				oldest, first = start, false
			}
		}
		delete(m.buckets, oldest)
	}
}

// Lanes counts distinct (node, shard) rollup producers seen — live
// operational detail phasetop's header shows, kept out of the View
// because it varies with shard count.
func (m *Merger) Lanes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.lanes)
}

// Rollups counts frames merged so far (same caveat as Lanes).
func (m *Merger) Rollups() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rollups
}

// TopSession is one entry of a View's top list.
type TopSession struct {
	SessionID uint64 `json:"session_id"`
	Samples   uint64 `json:"samples"`
}

// ClassOccupancy is one phase class's share of the merged samples.
type ClassOccupancy struct {
	Class   string  `json:"class"`
	Samples uint64  `json:"samples"`
	Share   float64 `json:"share"`
	// HitRate is hits/(hits+misses) within the class; 0 when unscored.
	HitRate float64 `json:"hit_rate"`
}

// SettingOccupancy is one DVFS operating point's share.
type SettingOccupancy struct {
	Setting string  `json:"setting"`
	Samples uint64  `json:"samples"`
	Share   float64 `json:"share"`
}

// LatencyBucket is one serving-latency histogram bucket.
type LatencyBucket struct {
	// UpperNs is the bucket's upper bound in nanoseconds; -1 marks the
	// overflow bucket.
	UpperNs int64  `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// View is a point-in-time fleet summary — what cmd/phasetop renders
// and phased serves under /rollup. Every float is derived from the
// merged integer counts in fixed order, so for the same ingested
// samples the View (and its JSON) is byte-identical regardless of
// shard, worker, or node count.
type View struct {
	// Nodes counts distinct contributing NodeIDs. Shard and rollup
	// counts are deliberately absent: they vary with how a node was
	// sharded, and the View's contract is to not.
	Nodes   int `json:"nodes"`
	Buckets int `json:"buckets"`
	// WindowStartNs/WindowEndNs span the retained buckets; 0 when none.
	WindowStartNs int64 `json:"window_start_ns"`
	WindowEndNs   int64 `json:"window_end_ns"`

	Starts  uint64 `json:"session_starts"`
	Samples uint64 `json:"samples"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Shed    uint64 `json:"shed"`

	// HitRate is Hits/(Hits+Misses); ShedRate is Shed/(Samples+Shed).
	HitRate  float64 `json:"hit_rate"`
	ShedRate float64 `json:"shed_rate"`
	// PowerProxy is the sample-weighted V²f of the served DVFS
	// settings, normalized to the fastest Pentium-M point: 1.0 means
	// the fleet ran flat out, lower means DVFS slack was harvested.
	PowerProxy float64 `json:"power_proxy"`

	Classes  []ClassOccupancy   `json:"classes"`
	Settings []SettingOccupancy `json:"settings"`

	LatencyAvgNs   float64         `json:"latency_avg_ns"`
	LatencyBuckets []LatencyBucket `json:"latency_buckets"`

	Top []TopSession `json:"top_sessions"`
}

// Snapshot materializes the merged state into a View with at most
// topN top sessions (values below 1 select wire.RollupTopK).
//
// The top list is assembled per bucket first: each retained bucket's
// candidate union is reduced to its exact top-RollupTopK under the
// total order (count desc, id asc) — the union of per-shard top lists
// always contains the true per-bucket top because a session lives on
// exactly one shard — and only those exact per-bucket winners are
// summed across buckets. Summing the raw candidate unions instead
// would leak shard-count dependence into the result.
func (m *Merger) Snapshot(topN int) View {
	if topN < 1 {
		topN = wire.RollupTopK
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	v := View{
		Nodes:   len(m.nodes),
		Buckets: len(m.buckets),
		Starts:  m.starts,
		Shed:    m.shed,
	}

	ladder := dvfs.PentiumM()
	var settingSamples [wire.RollupSettings]uint64
	v.Classes = make([]ClassOccupancy, wire.RollupClasses)
	for c := 0; c < wire.RollupClasses; c++ {
		var n, hit, miss uint64
		for s := 0; s < wire.RollupSettings; s++ {
			cell := c*wire.RollupSettings + s
			n += m.samples[cell]
			hit += m.hits[cell]
			miss += m.misses[cell]
			settingSamples[s] += m.samples[cell]
		}
		v.Samples += n
		v.Hits += hit
		v.Misses += miss
		v.Classes[c] = ClassOccupancy{Class: phase.Class(c).String(), Samples: n}
		if hit+miss > 0 {
			v.Classes[c].HitRate = float64(hit) / float64(hit+miss)
		}
	}
	for c := range v.Classes {
		if v.Samples > 0 {
			v.Classes[c].Share = float64(v.Classes[c].Samples) / float64(v.Samples)
		}
	}

	v.Settings = make([]SettingOccupancy, wire.RollupSettings)
	var vfSum, vfTop float64
	top := ladder.Point(0)
	vfTop = top.VoltageV * top.VoltageV * top.FrequencyHz
	for s := 0; s < wire.RollupSettings; s++ {
		p := ladder.Point(dvfs.Setting(s))
		v.Settings[s] = SettingOccupancy{
			Setting: settingLabel(p),
			Samples: settingSamples[s],
		}
		if v.Samples > 0 {
			v.Settings[s].Share = float64(settingSamples[s]) / float64(v.Samples)
		}
		// float64 rounds the product before the add, so no architecture
		// fuses the two.
		vfSum += float64(float64(settingSamples[s]) * p.VoltageV * p.VoltageV * p.FrequencyHz)
	}
	if v.Samples > 0 {
		v.PowerProxy = vfSum / (float64(v.Samples) * vfTop)
	}

	if v.Hits+v.Misses > 0 {
		v.HitRate = float64(v.Hits) / float64(v.Hits+v.Misses)
	}
	if v.Samples+v.Shed > 0 {
		v.ShedRate = float64(v.Shed) / float64(v.Samples+v.Shed)
	}

	v.LatencyBuckets = make([]LatencyBucket, wire.RollupLatBuckets)
	var latCount uint64
	for i := range m.lat {
		upper := int64(-1)
		if i < len(telemetry.DefaultFrameBounds) {
			upper = int64(telemetry.DefaultFrameBounds[i] * 1e9)
		}
		v.LatencyBuckets[i] = LatencyBucket{UpperNs: upper, Count: m.lat[i]}
		latCount += m.lat[i]
	}
	if latCount > 0 {
		v.LatencyAvgNs = float64(m.latSum) / float64(latCount)
	}

	v.Top = m.topSessionsLocked(topN)
	for start, b := range m.buckets {
		if v.WindowStartNs == 0 || start < v.WindowStartNs {
			v.WindowStartNs = start
		}
		if end := start + b.lenNs; end > v.WindowEndNs {
			v.WindowEndNs = end
		}
	}
	return v
}

// topSessionsLocked builds the cross-bucket top list from exact
// per-bucket winners only (see Snapshot).
func (m *Merger) topSessionsLocked(topN int) []TopSession {
	totals := make(map[uint64]uint64)
	for _, b := range m.buckets {
		var winners [wire.RollupTopK]wire.RollupTop
		used := 0
		for id, count := range b.top {
			used = topInsert(&winners, used, id, count)
		}
		for _, w := range winners[:used] {
			totals[w.SessionID] += w.Samples
		}
	}
	out := make([]TopSession, 0, len(totals))
	for id, n := range totals {
		out = append(out, TopSession{SessionID: id, Samples: n})
	}
	sort.Slice(out, func(i, j int) bool {
		return topLess(out[i].SessionID, out[i].Samples, out[j].SessionID, out[j].Samples)
	})
	if len(out) > topN {
		out = out[:topN]
	}
	return out
}

// settingLabel renders an operating point as e.g. "1500MHz".
func settingLabel(p dvfs.OperatingPoint) string {
	return strconv.FormatInt(int64(p.FrequencyHz/1e6), 10) + "MHz"
}
