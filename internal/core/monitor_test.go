package core

import (
	"testing"

	"phasemon/internal/cpusim"
	"phasemon/internal/phase"
	"phasemon/internal/workload"
)

func TestNewMonitorValidation(t *testing.T) {
	tab := phase.Default()
	if _, err := NewMonitor(nil, NewLastValue()); err == nil {
		t.Error("nil classifier accepted")
	}
	if _, err := NewMonitor(tab, nil); err == nil {
		t.Error("nil predictor accepted")
	}
	m, err := NewMonitor(tab, NewLastValue())
	if err != nil {
		t.Fatal(err)
	}
	if m.cls != phase.Classifier(tab) || m.Predictor() == nil {
		t.Error("accessors broken")
	}
}

func TestMonitorStepSemantics(t *testing.T) {
	tab := phase.Default()
	m, err := NewMonitor(tab, NewLastValue())
	if err != nil {
		t.Fatal(err)
	}
	// First interval: classified, predicted, but not scored.
	actual, next := m.Step(phase.Sample{MemPerUop: 0.002})
	if actual != 1 || next != 1 {
		t.Fatalf("step 1: actual=%v next=%v", actual, next)
	}
	if m.Tally().Total() != 0 {
		t.Errorf("first interval was scored")
	}
	// Second interval, same phase: the pending prediction (1) is
	// correct.
	actual, next = m.Step(phase.Sample{MemPerUop: 0.003})
	if actual != 1 || next != 1 {
		t.Fatalf("step 2: actual=%v next=%v", actual, next)
	}
	if got := m.Tally(); got.Total() != 1 || got.Correct() != 1 {
		t.Errorf("tally = %d/%d", got.Correct(), got.Total())
	}
	// Third interval: a phase-6 jump the last-value predictor missed.
	actual, _ = m.Step(phase.Sample{MemPerUop: 0.05})
	if actual != 6 {
		t.Fatalf("step 3: actual=%v", actual)
	}
	if got := m.Tally(); got.Total() != 2 || got.Correct() != 1 {
		t.Errorf("tally = %d/%d", got.Correct(), got.Total())
	}
	if m.steps != 3 {
		t.Errorf("Steps = %d", m.steps)
	}
	if m.LastPrediction() != 6 {
		t.Errorf("LastPrediction = %v", m.LastPrediction())
	}
	if got := m.Confusion().Count(1, 6); got != 1 {
		t.Errorf("confusion count(pred 1, actual 6) = %d", got)
	}
}

func TestMonitorReset(t *testing.T) {
	tab := phase.Default()
	m, err := NewMonitor(tab, NewLastValue())
	if err != nil {
		t.Fatal(err)
	}
	m.Step(phase.Sample{MemPerUop: 0.002})
	m.Step(phase.Sample{MemPerUop: 0.03})
	m.Reset()
	if m.steps != 0 || m.Tally().Total() != 0 || m.LastPrediction() != phase.None {
		t.Error("Reset incomplete")
	}
}

func TestObservationsFromWorkDVFSInvariance(t *testing.T) {
	// The observation stream's phases must be identical no matter what
	// frequency the trace is collected at — the Section 4 property
	// that makes offline evaluation legitimate.
	model := cpusim.New(cpusim.DefaultConfig())
	tab := phase.Default()
	p, err := workload.ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	works := workload.Collect(p.Generator(workload.Params{Seed: 1, Intervals: 300}), 0)
	hi, err := ObservationsFromWork(model, works, tab, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := ObservationsFromWork(model, works, tab, 600e6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hi {
		if hi[i].Phase != lo[i].Phase {
			t.Fatalf("interval %d: phase differs across frequencies (%v vs %v)", i, hi[i].Phase, lo[i].Phase)
		}
		if hi[i].Sample.MemPerUop != lo[i].Sample.MemPerUop {
			t.Fatalf("interval %d: Mem/Uop differs across frequencies", i)
		}
		if lo[i].Sample.UPC < hi[i].Sample.UPC {
			t.Fatalf("interval %d: UPC should not drop at lower frequency", i)
		}
	}
}

func TestObservationsFromWorkBadInput(t *testing.T) {
	model := cpusim.New(cpusim.DefaultConfig())
	tab := phase.Default()
	if _, err := ObservationsFromWork(model, []cpusim.Work{{}}, tab, 1e9); err == nil {
		t.Error("invalid work accepted")
	}
}

func TestMonitorWithGPHTOnApplu(t *testing.T) {
	// End-to-end through the Monitor: GPHT accuracy on the applu
	// workload must beat last value by a wide margin (the paper's
	// headline 6X misprediction reduction is asserted in the
	// experiments package; here we check the monitor plumbing).
	model := cpusim.New(cpusim.DefaultConfig())
	tab := phase.Default()
	p, err := workload.ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	works := workload.Collect(p.Generator(workload.Params{Seed: 1, Intervals: 2000}), 0)

	run := func(pred Predictor) float64 {
		m, err := NewMonitor(tab, pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range works {
			r, err := model.Execute(w, 1.5e9)
			if err != nil {
				t.Fatal(err)
			}
			m.Step(phase.Sample{MemPerUop: r.MemPerUop, UPC: r.UPC})
		}
		a, err := m.Tally().Accuracy()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	lv := run(NewLastValue())
	g := run(MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: 6}))
	if lv > 0.60 {
		t.Errorf("last value on applu: %.3f, expected below 0.60", lv)
	}
	if g < 0.85 {
		t.Errorf("GPHT on applu: %.3f, expected above 0.85", g)
	}
	if g < lv+0.25 {
		t.Errorf("GPHT (%.3f) should beat last value (%.3f) decisively", g, lv)
	}
}
