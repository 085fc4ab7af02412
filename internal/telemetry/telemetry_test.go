package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter should read 0")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.NumBuckets() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil histogram should be inert")
	}
	var j *Journal
	journalPMIs(j, 1)
	if j.Len() != 0 || j.Recent(0) != nil {
		t.Error("nil journal should be inert")
	}
	var r *Registry
	r.Counter("x").Inc()
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
	var hub *Hub
	b := hub.NewStepBatch()
	b.Fold(0, 0.01, 1, 1, 2, 2, 0)
	b.GPHTLookups(1, 0)
	b.DVFSChange(0, 1, 2, 0)
	b.PMISample(0, 0.1, 1, 0)
	b.Publish()
	if hub.Summary() != "telemetry off" {
		t.Errorf("nil hub summary = %q", hub.Summary())
	}
	if v := hub.Accuracy(); v.Total != 0 {
		t.Error("nil hub accuracy should be zero")
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %v, want 2.5", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := mustHistogram(t, []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 100, math.Inf(1)} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	s := h.Snapshot()
	want := []uint64{2, 2, 1, 2} // le=1: {0.5, 1}; le=2: {1.5, 2}; le=5: {4}; +Inf: {100, Inf}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if !math.IsInf(s.Sum, 1) {
		t.Errorf("sum = %v, want +Inf", s.Sum)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := NewHistogram(bounds); err == nil {
			t.Errorf("NewHistogram(%v) should fail", bounds)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name should return same counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same name should return same gauge")
	}
	h1, err := r.Histogram("h", []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Histogram("h", []float64{9}) // existing bounds win
	if err != nil || h1 != h2 {
		t.Errorf("histogram get-or-create broken: %v %v", h1 == h2, err)
	}
	r.Counter("a").Add(3)
	r.Gauge("g").Set(-1)
	h1.Observe(1.5)
	s := r.Snapshot()
	if s.Counters["a"] != 3 || s.Gauges["g"] != -1 || s.Histograms["h"].Count != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestJournalRingSemantics(t *testing.T) {
	j := NewJournal(3)
	journalPMIs(j, 5)
	if j.Len() != 3 || j.Cap() != 3 {
		t.Fatalf("len=%d cap=%d", j.Len(), j.Cap())
	}
	if j.Seq() != 5 || j.Dropped() != 2 {
		t.Errorf("seq=%d dropped=%d, want 5, 2", j.Seq(), j.Dropped())
	}
	got := j.Recent(0)
	if len(got) != 3 {
		t.Fatalf("Recent(0) len = %d", len(got))
	}
	for i, e := range got {
		if e.Step != i+2 || e.Seq != uint64(i+2) {
			t.Errorf("event %d = %+v, want step/seq %d", i, e, i+2)
		}
	}
	newest := j.Recent(1)
	if len(newest) != 1 || newest[0].Step != 4 {
		t.Errorf("Recent(1) = %+v, want newest (step 4)", newest)
	}
}

func TestHubAccuracyView(t *testing.T) {
	h := NewHub(3)
	recordVerdicts(h, [3]int{1, 1, 1}, [3]int{2, 1, 2}, [3]int{3, 2, 2})
	v := h.Accuracy()
	if v.Total != 3 || v.Correct != 2 {
		t.Fatalf("total=%d correct=%d", v.Total, v.Correct)
	}
	if math.Abs(v.Accuracy-2.0/3) > 1e-12 {
		t.Errorf("accuracy = %v", v.Accuracy)
	}
	// Rows are actual phases: actual 2 was predicted as 1 once and 2 once.
	if v.Confusion[2][1] != 1 || v.Confusion[2][2] != 1 {
		t.Errorf("confusion = %v", v.Confusion)
	}
	if math.Abs(v.RowNormalized[2][1]-0.5) > 1e-12 {
		t.Errorf("row-normalized = %v", v.RowNormalized)
	}
	if h.Mispredictions.Value() != 1 {
		t.Errorf("mispredictions = %d", h.Mispredictions.Value())
	}
	if got := h.Journal.Len(); got != 3 {
		t.Errorf("journal should hold the 3 verdicts, has %d", got)
	}
}

func TestHubSummaryLine(t *testing.T) {
	h := NewHub(6)
	if !strings.Contains(h.Summary(), "acc=-") {
		t.Errorf("empty hub summary = %q, want unscored accuracy", h.Summary())
	}
	h.CurrentPhase.Set(4)
	recordVerdicts(h, [3]int{1, 2, 2})
	line := h.Summary()
	for _, want := range []string{"steps=1", "acc=100.0%(1)", "phase=P4", "journal="} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "\n") {
		t.Error("summary must be one line")
	}
}

func TestWritePrometheus(t *testing.T) {
	h := NewHub(6)
	h.Steps.Add(7)
	h.CurrentPhase.Set(3)
	h.MemPerUop.Observe(0.003)
	h.MemPerUop.Observe(0.05)
	var b strings.Builder
	if err := WritePrometheus(&b, h.Registry.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE " + MetricSteps + " counter",
		MetricSteps + " 7",
		"# TYPE " + MetricCurrentPhase + " gauge",
		MetricCurrentPhase + " 3",
		"# TYPE " + MetricMemPerUop + " histogram",
		MetricMemPerUop + `_bucket{le="0.005"} 1`,
		MetricMemPerUop + `_bucket{le="+Inf"} 2`,
		MetricMemPerUop + "_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPHandlers(t *testing.T) {
	h := NewHub(6)
	recordVerdicts(h, [3]int{1, 3, 3})
	b := h.NewStepBatch()
	b.PMISample(1, 0.012, 0.8, 0)
	b.Publish()
	srv := httptest.NewServer(h.PrefixHandler())
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), MetricSteps+" 1") {
		t.Errorf("/metrics missing step counter:\n%s", body)
	}

	resp = get("/snapshot")
	var snap HubSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/snapshot decode: %v", err)
	}
	resp.Body.Close()
	if snap.Metrics.Counters[MetricSteps] != 1 || snap.Accuracy.Total != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Journal.Len != 2 {
		t.Errorf("journal stats = %+v, want 2 events", snap.Journal)
	}

	resp = get("/events?n=1")
	var events []Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("/events decode: %v", err)
	}
	resp.Body.Close()
	if len(events) != 1 || events[0].Kind != KindPMISample {
		t.Errorf("events = %+v, want the newest (pmi_sample)", events)
	}

	if resp = get("/events?n=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n should 400, got %d", resp.StatusCode)
	}
	resp.Body.Close()

	post, err := http.Post(srv.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", post.StatusCode)
	}
	post.Body.Close()

	if resp = get("/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestServeBindsAndShutsDown(t *testing.T) {
	h := NewHub(6)
	addr, shutdown, err := h.ServePrefix("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if err := shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr.String() + "/metrics"); err == nil {
		t.Error("server should be down after shutdown")
	}
}

// TestConcurrentUse drives writers and readers simultaneously; it
// exists to fail under -race if any export path reads unsynchronized
// state.
func TestConcurrentUse(t *testing.T) {
	h := NewHub(6)
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := h.NewStepBatch()
			for i := 0; i < perWriter; i++ {
				h.CurrentPhase.Set(float64(i % 6))
				h.MemPerUop.Observe(float64(i%40) / 1000)
				recordVerdicts(h, [3]int{i, i%6 + 1, (i+w)%6 + 1})
				if i%17 == 0 {
					b.DVFSChange(i, 0, i%6, 0)
				}
				b.PMISample(i, 0.01, 1, 0)
				b.Publish()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = h.Snapshot()
			_ = h.Summary()
			_ = h.Journal.Recent(64)
			var b strings.Builder
			_ = WritePrometheus(&b, h.Registry.Snapshot())
		}
	}()
	wg.Wait()
	<-done
	if got := h.Steps.Value(); got != writers*perWriter {
		t.Errorf("steps = %d, want %d", got, writers*perWriter)
	}
	if got := h.Accuracy().Total; got != writers*perWriter {
		t.Errorf("scored predictions = %d, want %d", got, writers*perWriter)
	}
}

// recordVerdicts folds {step, predicted, actual} prediction verdicts
// through a StepBatch, the hub's one verdict path, and publishes them:
// each a counted step with a NaN reading (no Mem/Uop bucket) and no
// phase transition or gauge change.
// journalPMIs journals n PMI-sample events, steps 0 to n-1, into j
// through the one journal write path: StepBatch publication.
func journalPMIs(j *Journal, n int) {
	h := NewHub(6)
	h.Journal = j
	b := h.NewStepBatch()
	for i := 0; i < n; i++ {
		b.PMISample(i, 0.01, 1, 0)
		b.Publish()
	}
}

func recordVerdicts(h *Hub, verdicts ...[3]int) {
	b := h.NewStepBatch()
	for _, v := range verdicts {
		b.Fold(v[0], math.NaN(), v[2], v[1], v[2], v[1], 0)
	}
	b.Publish()
}

func mustHistogram(tb testing.TB, bounds []float64) *Histogram {
	tb.Helper()
	h, err := NewHistogram(bounds)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}
