// Package telemetry gives the phase-monitoring pipeline live, runtime
// observability — the user-visible counterpart of the paper's "live"
// claim. It provides cheap in-process instruments (atomic counters,
// gauges, fixed-bucket histograms) behind a central registry, plus a
// bounded ring-buffer journal of typed events (phase transitions,
// prediction verdicts, DVFS changes, PMI samples), and exports all of
// it as a JSON snapshot, Prometheus text, or over HTTP.
//
// The design follows the in-process aggregator/exporter shape of
// production agents: instrumentation sites write through nil-safe
// handles so an unobserved run (nil Hub) pays a single predictable
// branch per hot-path call, and readers pull consistent-enough copies
// without ever blocking writers on anything slower than a mutex.
package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"phasemon/internal/stats"
)

// Metric names exported by the hub. Keeping them as constants makes
// the Prometheus surface greppable from one place.
const (
	MetricSteps            = "phasemon_monitor_steps_total"
	MetricMispredictions   = "phasemon_monitor_mispredictions_total"
	MetricPhaseTransitions = "phasemon_monitor_phase_transitions_total"
	MetricGPHTHits         = "phasemon_gpht_hits_total"
	MetricGPHTMisses       = "phasemon_gpht_misses_total"
	MetricDVFSTransitions  = "phasemon_dvfs_transitions_total"
	MetricPMISamples       = "phasemon_pmi_samples_total"
	MetricBudgetViolations = "phasemon_pmi_budget_violations_total"
	MetricGovernorRuns     = "phasemon_governor_runs_total"
	MetricFleetStarted     = "phasemon_fleet_runs_started_total"
	MetricFleetCompleted   = "phasemon_fleet_runs_completed_total"
	MetricFleetFailed      = "phasemon_fleet_runs_failed_total"
	MetricWorkloadHits     = "phasemon_workload_cache_hits_total"
	MetricWorkloadMisses   = "phasemon_workload_cache_misses_total"
	MetricWorkloadEvicted  = "phasemon_workload_cache_evictions_total"
	MetricWorkloadSamples  = "phasemon_workload_cache_samples"
	MetricFleetQueueDepth  = "phasemon_fleet_queue_depth"
	MetricFleetRunSeconds  = "phasemon_fleet_run_seconds"
	MetricCurrentPhase     = "phasemon_monitor_current_phase"
	MetricPredictedPhase   = "phasemon_monitor_predicted_phase"
	MetricCurrentSetting   = "phasemon_dvfs_current_setting"
	MetricMemPerUop        = "phasemon_sample_mem_per_uop"
	MetricHandlerSeconds   = "phasemon_pmi_handler_seconds"

	// Serving-path instruments (the phased server).
	MetricPhasedSessions       = "phasemon_phased_sessions"
	MetricPhasedFramesIn       = "phasemon_phased_frames_in_total"
	MetricPhasedFramesOut      = "phasemon_phased_frames_out_total"
	MetricPhasedDroppedSamples = "phasemon_phased_dropped_samples_total"
	MetricPhasedProtocolErrors = "phasemon_phased_protocol_errors_total"
	MetricPhasedFrameSeconds   = "phasemon_phased_frame_seconds"
	MetricPhasedFlushes        = "phasemon_phased_flushes_total"
	MetricPhasedFlushFrames    = "phasemon_phased_flush_frames"
	MetricPhasedFlushSeconds   = "phasemon_phased_flush_seconds"

	// Tournament counters (the tournament package).
	MetricTournamentCells      = "phasemon_tournament_cells_total"
	MetricTournamentRounds     = "phasemon_tournament_rounds_total"
	MetricTournamentEliminated = "phasemon_tournament_eliminated_total"

	// Rollup-pipeline self-telemetry (the agg package).
	MetricAggIngested       = "phasemon_agg_ingested_total"
	MetricAggRollups        = "phasemon_agg_rollups_total"
	MetricAggBucketsDropped = "phasemon_agg_buckets_dropped_total"
	MetricAggLateSamples    = "phasemon_agg_late_samples_total"
	MetricAggOpenBuckets    = "phasemon_agg_open_buckets"
)

// PhasedPrefix selects the serving-path instruments for prefix-
// filtered export: a phased deployment exposes exactly the
// phasemon_phased_* family on its public /metrics.
const PhasedPrefix = "phasemon_phased_"

// AggPrefix selects the rollup pipeline's self-telemetry
// (phasemon_agg_*); a phased deployment exports it alongside
// PhasedPrefix.
const AggPrefix = "phasemon_agg_"

// Clock is an injectable time source. Hubs stamp journal events with
// it, and the agg package buckets rollups by it; tests inject a fixed
// or stepped clock to make both deterministic.
type Clock func() time.Time

// HubOption configures a Hub at construction.
type HubOption func(*Hub)

// WithClock sets the hub's time source. A nil clock (the default)
// selects the wall clock.
//
//lint:unusedexport test seam: tests inject a fixed clock so journal stamps and rollup buckets are deterministic
func WithClock(c Clock) HubOption {
	return func(h *Hub) { h.clock = c }
}

// DefaultMemPerUopBounds are the Mem/Uop histogram bucket bounds — the
// paper's Table 1 phase boundaries, so each bucket is one phase.
var DefaultMemPerUopBounds = []float64{0.005, 0.010, 0.015, 0.020, 0.030}

// DefaultHandlerBounds bucket the PMI handler cost in seconds; the
// last bound is the kernel module's 50 µs interrupt budget, so the
// +Inf bucket counts budget-busting invocations.
var DefaultHandlerBounds = []float64{1e-6, 2e-6, 5e-6, 10e-6, 20e-6, 50e-6}

// DefaultFleetRunBounds bucket wall-clock seconds of one fleet run,
// spanning cache-hit-fast replays through multi-second sweeps.
var DefaultFleetRunBounds = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30}

// DefaultFrameBounds bucket the phased server's per-sample handling
// latency in seconds: arrival to prediction written. The low buckets
// resolve the in-process step cost; the top ones catch queueing under
// load.
var DefaultFrameBounds = []float64{5e-6, 20e-6, 100e-6, 500e-6, 2e-3, 10e-3, 100e-3}

// DefaultFlushFrameBounds bucket the number of reply frames coalesced
// into one writev by the phased server's per-connection coalescer; a
// distribution stuck at 1 means batching is negotiated but idle.
var DefaultFlushFrameBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// DefaultFlushBounds bucket the coalescer's flush latency in seconds:
// first prediction buffered to writev completed. The 500 µs bound is
// the default FlushInterval, so the buckets above it count flushes
// that blew the latency budget (slow peers, kernel backpressure).
var DefaultFlushBounds = []float64{50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 5e-3, 20e-3}

// Hub bundles the instruments and journal for one monitored pipeline.
// Every method and every instrument handle is safe on a nil *Hub, so
// components hold a Hub pointer that defaults to nil and instrument
// unconditionally.
type Hub struct {
	// Registry holds every instrument below, for export.
	Registry *Registry
	// Journal holds the recent typed events.
	Journal *Journal

	// Counters over the hot paths.
	Steps            *Counter
	Mispredictions   *Counter
	PhaseTransitions *Counter
	GPHTHits         *Counter
	GPHTMisses       *Counter
	DVFSTransitions  *Counter
	PMISamples       *Counter
	BudgetViolations *Counter
	GovernorRuns     *Counter

	// Fleet-engine counters: run lifecycle.
	FleetStarted   *Counter
	FleetCompleted *Counter
	FleetFailed    *Counter

	// Workload-trace cache counters (the wcache package).
	WorkloadCacheHits      *Counter
	WorkloadCacheMisses    *Counter
	WorkloadCacheEvictions *Counter

	// Tournament counters: grid cells scored, rounds completed, and
	// predictor specs eliminated across all rounds.
	TournamentCells      *Counter
	TournamentRounds     *Counter
	TournamentEliminated *Counter

	// Gauges of current state.
	CurrentPhase   *Gauge
	PredictedPhase *Gauge
	CurrentSetting *Gauge
	// FleetQueueDepth is the number of fleet run specs accepted but not
	// yet finished.
	FleetQueueDepth *Gauge
	// WorkloadCacheSamples is the total number of work items currently
	// held by the workload-trace cache.
	WorkloadCacheSamples *Gauge

	// Serving-path instruments (the phased server).
	PhasedSessions       *Gauge
	PhasedFramesIn       *Counter
	PhasedFramesOut      *Counter
	PhasedDroppedSamples *Counter
	PhasedProtocolErrors *Counter
	// PhasedFlushes counts coalesced reply writes (one writev each).
	PhasedFlushes *Counter

	// Distributions.
	MemPerUop   *Histogram
	HandlerCost *Histogram
	// FleetRunSeconds distributes per-run wall time in the fleet engine.
	FleetRunSeconds *Histogram
	// PhasedFrameSeconds distributes the phased server's per-sample
	// handling latency: a worker times each session batch it steps —
	// monitor steps plus handing the replies to the write coalescer —
	// and records every sample of the batch at the batch's mean, so
	// the count and sum are exact and the buckets are per-batch.
	PhasedFrameSeconds *Histogram
	// PhasedFlushFrames distributes reply frames per coalesced flush.
	PhasedFlushFrames *Histogram
	// PhasedFlushSeconds distributes coalescer flush latency (first
	// prediction buffered to writev completed).
	PhasedFlushSeconds *Histogram

	// conf is the live confusion matrix: a flat row-major
	// (numPhases+1)² grid of atomic cells (row = actual, column =
	// predicted, index 0 = None/out-of-range), so scoring a verdict
	// costs one atomic add. Snapshots materialize it into a
	// stats.Confusion and reuse that type's export paths.
	numPhases int //lint:immutable set once in NewHub, read-only afterwards
	conf      []atomic.Uint64

	// clock is the hub's time source; nil means the wall clock.
	clock Clock //lint:immutable set once in NewHub, read-only afterwards
}

// NewHub builds a hub for a classifier with numPhases phases (values
// below 1 select the paper's 6) with freshly registered instruments
// and a DefaultJournalCapacity journal.
func NewHub(numPhases int, opts ...HubOption) *Hub {
	if numPhases < 1 {
		numPhases = 6
	}
	reg := NewRegistry()
	h := &Hub{
		Registry:         reg,
		Journal:          NewJournal(DefaultJournalCapacity),
		Steps:            reg.Counter(MetricSteps),
		Mispredictions:   reg.Counter(MetricMispredictions),
		PhaseTransitions: reg.Counter(MetricPhaseTransitions),
		GPHTHits:         reg.Counter(MetricGPHTHits),
		GPHTMisses:       reg.Counter(MetricGPHTMisses),
		DVFSTransitions:  reg.Counter(MetricDVFSTransitions),
		PMISamples:       reg.Counter(MetricPMISamples),
		BudgetViolations: reg.Counter(MetricBudgetViolations),
		GovernorRuns:     reg.Counter(MetricGovernorRuns),
		FleetStarted:     reg.Counter(MetricFleetStarted),
		FleetCompleted:   reg.Counter(MetricFleetCompleted),
		FleetFailed:      reg.Counter(MetricFleetFailed),

		WorkloadCacheHits:      reg.Counter(MetricWorkloadHits),
		WorkloadCacheMisses:    reg.Counter(MetricWorkloadMisses),
		WorkloadCacheEvictions: reg.Counter(MetricWorkloadEvicted),

		TournamentCells:      reg.Counter(MetricTournamentCells),
		TournamentRounds:     reg.Counter(MetricTournamentRounds),
		TournamentEliminated: reg.Counter(MetricTournamentEliminated),

		PhasedFramesIn:       reg.Counter(MetricPhasedFramesIn),
		PhasedFramesOut:      reg.Counter(MetricPhasedFramesOut),
		PhasedDroppedSamples: reg.Counter(MetricPhasedDroppedSamples),
		PhasedProtocolErrors: reg.Counter(MetricPhasedProtocolErrors),
		PhasedFlushes:        reg.Counter(MetricPhasedFlushes),

		CurrentPhase:         reg.Gauge(MetricCurrentPhase),
		PredictedPhase:       reg.Gauge(MetricPredictedPhase),
		CurrentSetting:       reg.Gauge(MetricCurrentSetting),
		FleetQueueDepth:      reg.Gauge(MetricFleetQueueDepth),
		WorkloadCacheSamples: reg.Gauge(MetricWorkloadSamples),
		PhasedSessions:       reg.Gauge(MetricPhasedSessions),
	}
	h.MemPerUop, _ = reg.Histogram(MetricMemPerUop, DefaultMemPerUopBounds)
	h.HandlerCost, _ = reg.Histogram(MetricHandlerSeconds, DefaultHandlerBounds)
	h.FleetRunSeconds, _ = reg.Histogram(MetricFleetRunSeconds, DefaultFleetRunBounds)
	h.PhasedFrameSeconds, _ = reg.Histogram(MetricPhasedFrameSeconds, DefaultFrameBounds)
	h.PhasedFlushFrames, _ = reg.Histogram(MetricPhasedFlushFrames, DefaultFlushFrameBounds)
	h.PhasedFlushSeconds, _ = reg.Histogram(MetricPhasedFlushSeconds, DefaultFlushBounds)
	h.numPhases = numPhases
	h.conf = make([]atomic.Uint64, (numPhases+1)*(numPhases+1))
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// Now reads the hub's clock: the injected Clock when one was set, the
// wall clock otherwise (including on a nil hub).
func (h *Hub) Now() time.Time {
	if h != nil && h.clock != nil {
		return h.clock()
	}
	return time.Now()
}

// Clock returns the hub's time source as a Clock, for components (the
// agg pipeline) that bucket by the same time base the hub stamps
// events with. Never nil; on a nil hub or unset clock it reads the
// wall clock.
func (h *Hub) Clock() Clock {
	if h != nil && h.clock != nil {
		return h.clock
	}
	return time.Now
}

// AccuracyView is the live prediction-accuracy summary served by
// snapshots, built from the stats package's confusion-matrix export
// paths.
type AccuracyView struct {
	// Total and Correct count scored predictions.
	Total   int `json:"total"`
	Correct int `json:"correct"`
	// Accuracy is Correct/Total, 0 while Total is 0.
	Accuracy float64 `json:"accuracy"`
	// Confusion is the (n+1)×(n+1) count matrix (row = actual phase,
	// column = predicted; index 0 collects None/out-of-range IDs).
	Confusion [][]int `json:"confusion"`
	// RowNormalized is Confusion with each row scaled to sum to 1;
	// rows with no observations stay all-zero.
	RowNormalized [][]float64 `json:"row_normalized"`
}

// confusion materializes the atomic matrix into a stats.Confusion.
// The cells are read one by one while writers proceed, so the copy is
// consistent only up to per-cell atomicity — the monitoring tradeoff
// this whole package makes.
func (h *Hub) confusion() *stats.Confusion {
	side := h.numPhases + 1
	counts := make([][]int, side)
	for i := range counts {
		counts[i] = make([]int, side)
		for j := range counts[i] {
			counts[i][j] = int(h.conf[i*side+j].Load())
		}
	}
	c, err := stats.NewConfusionFromCounts(counts)
	if err != nil {
		// Unreachable: the matrix is square by construction.
		c, _ = stats.NewConfusion(h.numPhases)
	}
	return c
}

// Accuracy snapshots the live accuracy view through the stats
// package's confusion-matrix export paths.
func (h *Hub) Accuracy() AccuracyView {
	if h == nil {
		return AccuracyView{}
	}
	c := h.confusion()
	v := AccuracyView{
		Confusion:     c.Counts(),
		RowNormalized: c.RowNormalized(),
	}
	for i, row := range v.Confusion {
		for j, n := range row {
			v.Total += n
			if i == j {
				v.Correct += n
			}
		}
	}
	if v.Total > 0 {
		v.Accuracy = float64(v.Correct) / float64(v.Total)
	}
	return v
}

// Summary renders a one-line operator view: steps, accuracy, phase and
// DVFS transition counts, PMI samples, and journal occupancy. This is
// the line cmd/dvfsgov prints periodically in live mode.
func (h *Hub) Summary() string {
	if h == nil {
		return "telemetry off"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d", h.Steps.Value())
	if v := h.Accuracy(); v.Total > 0 {
		fmt.Fprintf(&b, " acc=%.1f%%(%d)", v.Accuracy*100, v.Total)
	} else {
		b.WriteString(" acc=-")
	}
	fmt.Fprintf(&b, " phase=P%.0f transitions=%d dvfs=%d pmis=%d journal=%d/%d",
		h.CurrentPhase.Value(), h.PhaseTransitions.Value(), h.DVFSTransitions.Value(),
		h.PMISamples.Value(), h.Journal.Len(), h.Journal.Cap())
	return b.String()
}
