package telemetry

import (
	"net/http/httptest"
	"testing"
)

// TestNilReceiversAreNoOps calls every exported instrument method
// through a nil receiver: the package's contract (enforced by
// phasemonlint's nilhub analyzer) is that a nil hub means "telemetry
// disabled" and must never panic, so components can hold an optional
// *Hub and call through it without guarding every site.
func TestNilReceiversAreNoOps(t *testing.T) {
	var h *Hub
	b := h.NewStepBatch()
	if b != nil {
		t.Error("nil Hub NewStepBatch() non-nil")
	}
	b.Fold(1, 0.01, 1, 2, 2, 3, 0)
	b.GPHTLookups(1, 1)
	b.DVFSChange(1, 0, 3, 0)
	b.PMISample(1, 0.01, 1.2, 0)
	b.Publish()
	if acc := h.Accuracy(); acc.Total != 0 {
		t.Errorf("nil Hub Accuracy().Total = %d, want 0", acc.Total)
	}
	if s := h.Summary(); s == "" {
		t.Error("nil Hub Summary() empty; want a 'disabled' description")
	}
	if snap := h.Snapshot(); len(snap.Metrics.Counters) != 0 {
		t.Errorf("nil Hub Snapshot() has %d counters, want 0", len(snap.Metrics.Counters))
	}

	// Handler must serve (an error page), not panic.
	rec := httptest.NewRecorder()
	h.PrefixHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	if rec.Code < 400 {
		t.Errorf("nil Hub Handler() status = %d, want an error status", rec.Code)
	}

	var c *Counter
	c.Inc()
	c.Add(7)
	if v := c.Value(); v != 0 {
		t.Errorf("nil Counter Value() = %d, want 0", v)
	}

	var g *Gauge
	g.Set(3.5)
	if v := g.Value(); v != 0 {
		t.Errorf("nil Gauge Value() = %v, want 0", v)
	}

	var hist *Histogram
	hist.Observe(1.0)
	if n := hist.NumBuckets(); n != 0 {
		t.Errorf("nil Histogram NumBuckets() = %d, want 0", n)
	}
	if snap := hist.Snapshot(); snap.Count != 0 {
		t.Errorf("nil Histogram Snapshot().Count = %d, want 0", snap.Count)
	}

	var j *Journal
	jh := NewHub(6)
	jh.Journal = j
	jb := jh.NewStepBatch()
	jb.PMISample(0, 0.01, 1.2, 0)
	jb.Publish() // journals into the nil journal: a no-op
	if jh.PMISamples.Value() != 1 {
		t.Error("a hub without a journal dropped the batch's counters")
	}
	if got := j.Recent(10); len(got) != 0 {
		t.Errorf("nil Journal Recent() = %v, want empty", got)
	}
	if j.Len() != 0 || j.Cap() != 0 || j.Seq() != 0 || j.Dropped() != 0 {
		t.Error("nil Journal stats nonzero")
	}

	var r *Registry
	if r.Counter("x") != nil {
		t.Error("nil Registry Counter() != nil; callers chain .Inc() on it")
	}
	if r.Gauge("x") != nil {
		t.Error("nil Registry Gauge() != nil")
	}
	if hi, err := r.Histogram("x", nil); hi != nil || err != nil {
		t.Errorf("nil Registry Histogram() = %v, %v; want nil, nil", hi, err)
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Errorf("nil Registry Snapshot() has %d counters", len(snap.Counters))
	}
	if snap := r.SnapshotPrefix("phasemon_"); len(snap.Counters) != 0 {
		t.Errorf("nil Registry SnapshotPrefix() has %d counters", len(snap.Counters))
	}

	// The prefix-filtered handler must serve (an error page) on a nil
	// hub, like Handler.
	rec = httptest.NewRecorder()
	h.PrefixHandler(PhasedPrefix).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code < 400 {
		t.Errorf("nil Hub PrefixHandler() status = %d, want an error status", rec.Code)
	}
}

// TestNilSafePhasedInstruments extends the nil sweep to the serving-
// path instruments: a phased server holding a nil hub must be able to
// touch every one of them unconditionally through the nil-instrument
// no-op contract.
func TestNilSafePhasedInstruments(t *testing.T) {
	var h *Hub // nil: the fields below are nil instruments via a guarded fetch
	var (
		sessions                                       *Gauge
		framesIn, framesOut, drops, protoErrs, flushes *Counter
		frameSeconds, flushFrames, flushSeconds        *Histogram
	)
	if h != nil {
		t.Fatal("test wants a nil hub")
	}
	sessions.Set(3)
	framesIn.Inc()
	framesOut.Add(2)
	drops.Inc()
	protoErrs.Inc()
	flushes.Inc()
	frameSeconds.Observe(1e-6)
	flushFrames.Observe(8)
	flushSeconds.Observe(200e-6)
	if sessions.Value() != 0 || framesIn.Value() != 0 || framesOut.Value() != 0 ||
		drops.Value() != 0 || protoErrs.Value() != 0 || flushes.Value() != 0 ||
		frameSeconds.Snapshot().Count != 0 || flushFrames.Snapshot().Count != 0 ||
		flushSeconds.Snapshot().Count != 0 {
		t.Error("nil phased instruments accumulated state")
	}

	// And on a real hub they are registered under the phased prefix,
	// so the prefix filter exports exactly this family.
	hub := NewHub(6)
	hub.PhasedSessions.Set(4)
	hub.PhasedFramesIn.Add(10)
	hub.PhasedFramesOut.Add(9)
	hub.PhasedDroppedSamples.Inc()
	hub.PhasedProtocolErrors.Inc()
	hub.PhasedFlushes.Inc()
	hub.PhasedFrameSeconds.Observe(3e-6)
	hub.PhasedFlushFrames.Observe(4)
	hub.PhasedFlushSeconds.Observe(150e-6)
	snap := hub.Registry.SnapshotPrefix(PhasedPrefix)
	wantCounters := []string{
		MetricPhasedFramesIn, MetricPhasedFramesOut,
		MetricPhasedDroppedSamples, MetricPhasedProtocolErrors,
		MetricPhasedFlushes,
	}
	for _, name := range wantCounters {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("SnapshotPrefix missing counter %s", name)
		}
	}
	if len(snap.Counters) != len(wantCounters) {
		t.Errorf("SnapshotPrefix has %d counters %v, want exactly %d",
			len(snap.Counters), snap.Counters, len(wantCounters))
	}
	if _, ok := snap.Gauges[MetricPhasedSessions]; !ok || len(snap.Gauges) != 1 {
		t.Errorf("SnapshotPrefix gauges = %v, want only %s", snap.Gauges, MetricPhasedSessions)
	}
	wantHistograms := []string{
		MetricPhasedFrameSeconds, MetricPhasedFlushFrames, MetricPhasedFlushSeconds,
	}
	for _, name := range wantHistograms {
		if _, ok := snap.Histograms[name]; !ok {
			t.Errorf("SnapshotPrefix missing histogram %s", name)
		}
	}
	if len(snap.Histograms) != len(wantHistograms) {
		t.Errorf("SnapshotPrefix has %d histograms %v, want exactly %d",
			len(snap.Histograms), snap.Histograms, len(wantHistograms))
	}
}
