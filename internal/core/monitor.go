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
	// gpht is pred when it is a *GPHT: an observed step reports its
	// PHT lookup outcome.
	gpht *GPHT

	lastPrediction phase.ID
	lastActual     phase.ID
	tally          stats.Tally
	confusion      *stats.Confusion
	steps          int
}

// NewMonitor builds a monitor around a classifier and predictor. The
// monitor holds no telemetry hub: the stepping loop that drives it
// owns one and passes its batch to StepAt.
func NewMonitor(cls phase.Classifier, pred Predictor) (*Monitor, error) {
	if cls == nil || pred == nil {
		return nil, fmt.Errorf("core: monitor needs a classifier and a predictor")
	}
	conf, err := stats.NewConfusion(cls.NumPhases())
	if err != nil {
		return nil, err
	}
	m := &Monitor{cls: cls, pred: pred, confusion: conf}
	m.gpht, _ = pred.(*GPHT)
	return m, nil
}

// Classifier returns the monitor's classifier.
func (m *Monitor) Classifier() phase.Classifier { return m.cls }

// Predictor returns the monitor's predictor.
func (m *Monitor) Predictor() Predictor { return m.pred }

// Step processes one completed sampling interval: it classifies the
// sample, scores the pending prediction against it, and produces the
// next prediction. The first interval is not scored (there was nothing
// to predict it from). It records no telemetry; an observed loop steps
// through StepAt.
//
//lint:hotpath
func (m *Monitor) Step(s phase.Sample) (actual, next phase.ID) {
	return m.StepAt(s, nil, 0)
}

// StepAt is Step with the step's telemetry recorded into b, a batch
// the calling loop owns and publishes, its journal events stamped
// unixNs (Unix nanoseconds, normally the loop's hub clock reading for
// the interval or batch). A nil b records nothing. Neither b nor the
// stamp touches classification or prediction.
//
//lint:hotpath
func (m *Monitor) StepAt(s phase.Sample, b *telemetry.StepBatch, unixNs int64) (actual, next phase.ID) {
	actual = m.cls.Classify(s)
	scored := m.steps > 0
	if scored {
		m.tally.Record(m.lastPrediction, actual)
		m.confusion.Record(m.lastPrediction, actual)
	}
	if b == nil {
		next = m.pred.Observe(Observation{Sample: s, Phase: actual})
	} else {
		next = m.observeInto(b, s, actual, scored, unixNs)
	}
	m.lastActual = actual
	m.lastPrediction = next
	m.steps++
	return actual, next
}

// observeInto is the observed half of StepAt: it runs the predictor
// and records the step — Mem/Uop reading, gauges that moved, the
// scored verdict and any phase transition, the PHT lookup outcome —
// into b.
func (m *Monitor) observeInto(b *telemetry.StepBatch, s phase.Sample, actual phase.ID, scored bool, unixNs int64) phase.ID {
	var hits uint64
	if m.gpht != nil {
		hits = m.gpht.hits
	}
	next := m.pred.Observe(Observation{Sample: s, Phase: actual})
	if m.gpht != nil {
		b.GPHTLookup(m.gpht.hits != hits)
	}
	b.Step(s.MemPerUop)
	if actual != m.lastActual {
		b.Current(int(actual))
	}
	if next != m.lastPrediction {
		b.Predicted(int(next))
	}
	if scored {
		b.Prediction(m.steps, int(m.lastPrediction), int(actual), unixNs)
		if actual != m.lastActual {
			b.Transition(m.steps, int(m.lastActual), int(actual), unixNs)
		}
	}
	return next
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
