package core

import (
	"fmt"

	"phasemon/internal/cpusim"
	"phasemon/internal/phase"
	"phasemon/internal/stats"
	"phasemon/internal/telemetry"
)

// Monitor binds phase classification and prediction into the sampling
// loop: the PMI handler feeds it one Sample per interval and gets back
// the interval's classified phase plus the prediction for the next
// interval. It also keeps the running prediction-accuracy accounting
// the paper's kernel log maintains.
type Monitor struct {
	cls  phase.Classifier
	pred Predictor

	lastPrediction phase.ID
	lastActual     phase.ID
	tally          stats.Tally
	confusion      *stats.Confusion
	steps          int

	tel *telemetry.Hub
}

// telemetrySetter is implemented by predictors that can report into a
// telemetry hub (the GPHT's hit/miss counters). The method is
// unexported: observation wiring is decided at construction
// (WithTelemetry) and forwarded to the predictor by the monitor's own
// constructor — there is no post-hoc mutation surface.
type telemetrySetter interface {
	setTelemetry(*telemetry.Hub)
}

// attachTelemetry forwards the construction-time hub to the monitor
// and its predictor.
func (m *Monitor) attachTelemetry(h *telemetry.Hub) {
	m.tel = h
	if ts, ok := m.pred.(telemetrySetter); ok {
		ts.setTelemetry(h)
	}
}

// NewMonitor builds a monitor around a classifier and predictor.
// WithTelemetry attaches a hub at construction.
func NewMonitor(cls phase.Classifier, pred Predictor, opts ...Option) (*Monitor, error) {
	if cls == nil || pred == nil {
		return nil, fmt.Errorf("core: monitor needs a classifier and a predictor")
	}
	conf, err := stats.NewConfusion(cls.NumPhases())
	if err != nil {
		return nil, err
	}
	m := &Monitor{cls: cls, pred: pred, confusion: conf}
	if o := applyOptions(opts); o.tel != nil {
		m.attachTelemetry(o.tel)
	}
	return m, nil
}

// Telemetry returns the hub the monitor reports into, or nil when the
// run is unobserved. Construction-time wiring (WithTelemetry) makes
// this stable for the monitor's lifetime.
func (m *Monitor) Telemetry() *telemetry.Hub { return m.tel }

// Classifier returns the monitor's classifier.
func (m *Monitor) Classifier() phase.Classifier { return m.cls }

// Predictor returns the monitor's predictor.
func (m *Monitor) Predictor() Predictor { return m.pred }

// Step processes one completed sampling interval: it classifies the
// sample, scores the pending prediction against it, and produces the
// next prediction. The first interval is not scored (there was nothing
// to predict it from). An observed monitor reads the hub clock once
// per scored step and stamps the step's journal events with it.
//
//lint:hotpath
func (m *Monitor) Step(s phase.Sample) (actual, next phase.ID) {
	return m.step(s, 0, true)
}

// StepAt is Step with the journal timestamp supplied by the caller:
// unixNs (Unix nanoseconds, normally a hub clock reading) stamps the
// prediction verdict and phase transition the step journals, so a
// caller stepping a batch of samples reads the clock once per batch.
// The timestamp never touches classification or prediction; an
// unobserved monitor ignores it.
//
//lint:hotpath
func (m *Monitor) StepAt(s phase.Sample, unixNs int64) (actual, next phase.ID) {
	return m.step(s, unixNs, false)
}

// step is Step and StepAt: with readClock set it stamps the step's
// journal events with one fresh hub clock reading instead of unixNs.
// Both exported forms inline to a single call of this one.
func (m *Monitor) step(s phase.Sample, unixNs int64, readClock bool) (actual, next phase.ID) {
	actual = m.cls.Classify(s)
	scored := m.steps > 0
	if scored {
		m.tally.Record(m.lastPrediction, actual)
		m.confusion.Record(m.lastPrediction, actual)
	}
	next = m.pred.Observe(Observation{Sample: s, Phase: actual})
	if m.tel != nil {
		m.tel.Steps.Inc()
		m.tel.MemPerUop.Observe(s.MemPerUop)
		if actual != m.lastActual {
			m.tel.CurrentPhase.Set(float64(actual))
		}
		if next != m.lastPrediction {
			m.tel.PredictedPhase.Set(float64(next))
		}
		if scored {
			if readClock {
				unixNs = m.tel.Now().UnixNano()
			}
			m.tel.RecordPrediction(m.steps, int(m.lastPrediction), int(actual), unixNs)
			if actual != m.lastActual {
				m.tel.RecordPhaseTransition(m.steps, int(m.lastActual), int(actual), unixNs)
			}
		}
	}
	m.lastActual = actual
	m.lastPrediction = next
	m.steps++
	return actual, next
}

// LastPrediction returns the prediction pending for the interval
// currently executing.
func (m *Monitor) LastPrediction() phase.ID { return m.lastPrediction }

// Steps returns how many intervals have been processed.
func (m *Monitor) Steps() int { return m.steps }

// Tally returns a copy of the prediction accounting.
func (m *Monitor) Tally() stats.Tally { return m.tally }

// Confusion returns the per-phase prediction breakdown.
func (m *Monitor) Confusion() *stats.Confusion { return m.confusion }

// Reset clears monitor and predictor state.
func (m *Monitor) Reset() {
	m.pred.Reset()
	m.lastPrediction = phase.None
	m.lastActual = phase.None
	m.tally.Reset()
	m.confusion, _ = stats.NewConfusion(m.cls.NumPhases())
	m.steps = 0
}

// ObservationsFromWork classifies a work trace at a fixed frequency,
// producing the observation stream a predictor would have seen on an
// unmanaged system. Because the phase metric is DVFS-invariant, the
// frequency choice does not affect the phases — only the recorded UPC.
func ObservationsFromWork(model *cpusim.Model, works []cpusim.Work, cls phase.Classifier, freqHz float64) ([]Observation, error) {
	out := make([]Observation, len(works))
	for i, w := range works {
		r, err := model.Execute(w, freqHz)
		if err != nil {
			return nil, fmt.Errorf("core: interval %d: %w", i, err)
		}
		s := phase.Sample{MemPerUop: r.MemPerUop, UPC: r.UPC}
		out[i] = Observation{Sample: s, Phase: cls.Classify(s)}
	}
	return out, nil
}

// Evaluate replays an observation stream through a predictor and
// returns the accuracy tally. The predictor is Reset first. The first
// interval is unscored, matching Monitor semantics.
func Evaluate(p Predictor, obs []Observation) (stats.Tally, error) {
	var t stats.Tally
	if len(obs) == 0 {
		return t, ErrNoObservations
	}
	p.Reset()
	pending := phase.None
	for i, o := range obs {
		if i > 0 {
			t.Record(pending, o.Phase)
		}
		pending = p.Observe(o)
	}
	return t, nil
}

// EvaluateAll runs Evaluate for several predictors over the same
// stream, returning tallies keyed by predictor name.
func EvaluateAll(preds []Predictor, obs []Observation) (map[string]stats.Tally, error) {
	out := make(map[string]stats.Tally, len(preds))
	for _, p := range preds {
		t, err := Evaluate(p, obs)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %s: %w", p.Name(), err)
		}
		out[p.Name()] = t
	}
	return out, nil
}

// PaperPredictors returns the six predictors of the paper's Figure 4:
// last value, fixed windows of 8 and 128 (majority selector), variable
// windows of 128 entries with thresholds 0.005 and 0.030, and the
// GPHT with depth 8 and 1024 PHT entries.
func PaperPredictors(cls phase.Classifier) ([]Predictor, error) {
	fw8, err := NewFixedWindow(8, ModeMajority, cls)
	if err != nil {
		return nil, err
	}
	fw128, err := NewFixedWindow(128, ModeMajority, cls)
	if err != nil {
		return nil, err
	}
	vw005, err := NewVariableWindow(128, 0.005)
	if err != nil {
		return nil, err
	}
	vw030, err := NewVariableWindow(128, 0.030)
	if err != nil {
		return nil, err
	}
	gpht, err := NewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 1024, NumPhases: cls.NumPhases()})
	if err != nil {
		return nil, err
	}
	return []Predictor{NewLastValue(), fw8, fw128, vw005, vw030, gpht}, nil
}
