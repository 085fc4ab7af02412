package core

import (
	"fmt"
	"testing"

	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
)

// foldStep steps mon bare and folds the interval into b the way an
// observed stepping loop does (kernelsim.HandlePMI): what the monitor
// held before the step, its (actual, next), the sample's Mem/Uop
// reading, and the step's PHT lookups as the difference of the
// predictor's counts, journaled stamped unixNs.
func foldStep(mon *Monitor, b *telemetry.StepBatch, s phase.Sample, unixNs int64) (actual, next phase.ID) {
	step, prev, pending := mon.steps, mon.LastActual(), mon.LastPrediction()
	hits, misses := PHTLookups(mon.Predictor())
	actual, next = mon.Step(s)
	nowHits, nowMisses := PHTLookups(mon.Predictor())
	b.GPHTLookups(nowHits-hits, nowMisses-misses)
	b.Fold(step, s.MemPerUop, int(prev), int(pending), int(actual), int(next), unixNs)
	return actual, next
}

// observedStep returns a step function that drives mon the way an
// observed stepping loop does: each step folded into the loop's own
// StepBatch, stamped with one hub clock reading, and published before
// the next.
func observedStep(mon *Monitor, hub *telemetry.Hub) func(phase.Sample) (phase.ID, phase.ID) {
	b := hub.NewStepBatch()
	return func(s phase.Sample) (phase.ID, phase.ID) {
		actual, next := foldStep(mon, b, s, hub.Now().UnixNano())
		b.Publish()
		return actual, next
	}
}

// TestMonitorStepInstrumentation verifies the instrument flow of an
// observed step end to end, including the GPHT hit/miss counters read
// from the predictor around the step.
func TestMonitorStepInstrumentation(t *testing.T) {
	cls := phase.Default()
	gpht := MustNewGPHT(GPHTConfig{GPHRDepth: 2, PHTEntries: 16, NumPhases: cls.NumPhases()})
	hub := telemetry.NewHub(cls.NumPhases())
	mon, err := NewMonitor(cls, gpht)
	if err != nil {
		t.Fatal(err)
	}
	step := observedStep(mon, hub)

	// Phase 1 (Mem/Uop < 0.005), then phase 6 (> 0.030): one
	// transition, one scored (mis)prediction.
	step(phase.Sample{MemPerUop: 0.001, UPC: 1.5})
	step(phase.Sample{MemPerUop: 0.050, UPC: 0.4})

	if got := hub.Steps.Value(); got != 2 {
		t.Errorf("steps counter = %d, want 2", got)
	}
	if got := hub.PhaseTransitions.Value(); got != 1 {
		t.Errorf("phase transitions = %d, want 1", got)
	}
	if got := hub.Accuracy().Total; got != 1 {
		t.Errorf("scored predictions = %d, want 1", got)
	}
	if got := hub.CurrentPhase.Value(); got != 6 {
		t.Errorf("current phase gauge = %v, want 6", got)
	}
	if hub.GPHTHits.Value()+hub.GPHTMisses.Value() != 2 {
		t.Errorf("GPHT lookups = %d hits + %d misses, want 2 total",
			hub.GPHTHits.Value(), hub.GPHTMisses.Value())
	}
	if got := hub.MemPerUop.Snapshot().Count; got != 2 {
		t.Errorf("Mem/Uop histogram count = %d, want 2", got)
	}
	// Journal saw the verdict and the transition.
	events := hub.Journal.Recent(0)
	kinds := map[telemetry.EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds[telemetry.KindPrediction] != 1 || kinds[telemetry.KindPhaseTransition] != 1 {
		t.Errorf("journal kinds = %v", kinds)
	}

	// Telemetry must not change the monitor's own accounting.
	if mon.steps != 2 || mon.Tally().Total() != 1 {
		t.Errorf("monitor accounting disturbed: steps=%d tally=%d", mon.steps, mon.Tally().Total())
	}

	// A bare Step records nothing: the monitor holds no hub.
	mon.Step(phase.Sample{MemPerUop: 0.001, UPC: 1.5})
	if got := hub.Steps.Value(); got != 2 {
		t.Errorf("Step leaked into the hub: steps = %d", got)
	}
}

func TestMonitorStepsMatchWithAndWithoutTelemetry(t *testing.T) {
	cls := phase.Default()
	mkMon := func() *Monitor {
		g := MustNewGPHT(GPHTConfig{GPHRDepth: 4, PHTEntries: 32, NumPhases: cls.NumPhases()})
		m, err := NewMonitor(cls, g)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, wired := mkMon(), mkMon()
	step := observedStep(wired, telemetry.NewHub(cls.NumPhases()))
	for i := 0; i < 500; i++ {
		s := phase.Sample{MemPerUop: float64(i%7) * 0.006, UPC: 1}
		a1, n1 := plain.Step(s)
		a2, n2 := step(s)
		if a1 != a2 || n1 != n2 {
			t.Fatalf("step %d diverged: (%v,%v) vs (%v,%v)", i, a1, n1, a2, n2)
		}
	}
	if plain.Tally() != wired.Tally() {
		t.Errorf("tallies diverged: %+v vs %+v", plain.Tally(), wired.Tally())
	}
}

// TestFoldStampsCallerTime pins the publication contract of the
// observed step: Fold records into the caller's batch — the hub sees
// nothing until the caller publishes — and stamps every event it
// journals with the caller's timestamp. A batch of many folded steps
// published once and a batch published after every step leave
// identical hub counters, journals and confusion matrices.
func TestFoldStampsCallerTime(t *testing.T) {
	cls := phase.Default()
	atHub, stepHub := telemetry.NewHub(cls.NumPhases()), telemetry.NewHub(cls.NumPhases())
	mk := func() *Monitor {
		m, err := NewMonitor(cls, MustNewGPHT(GPHTConfig{GPHRDepth: 2, PHTEntries: 16, NumPhases: cls.NumPhases()}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	at, stepped := mk(), mk()
	batch, own := atHub.NewStepBatch(), stepHub.NewStepBatch()
	// Cycle phases 1, 6, 6 so scored steps journal verdicts, hits and
	// misses, with and without a transition.
	samples := []phase.Sample{{MemPerUop: 0.001, UPC: 1.5}, {MemPerUop: 0.050, UPC: 0.4}, {MemPerUop: 0.050, UPC: 0.4}}
	const steps = 30
	for i := 0; i < steps; i++ {
		s := samples[i%len(samples)]
		a1, n1 := foldStep(at, batch, s, 777)
		if got := atHub.Steps.Value(); got != 0 {
			t.Fatalf("step %d: Fold reached the hub before publication (steps = %d)", i, got)
		}
		a2, n2 := foldStep(stepped, own, s, 777)
		own.Publish()
		if a1 != a2 || n1 != n2 {
			t.Fatalf("step %d: batched (%v,%v) diverged from per-step (%v,%v)", i, a1, n1, a2, n2)
		}
		if got := stepHub.Steps.Value(); got != uint64(i+1) {
			t.Fatalf("step %d: per-step publication left the hub at %d steps, want %d", i, got, i+1)
		}
	}
	if atHub.Journal.Len() != 0 {
		t.Fatal("Fold journaled before publication")
	}
	batch.Publish()
	for _, e := range atHub.Journal.Recent(0) {
		if e.UnixNs != 777 {
			t.Fatalf("%v event stamped %d, want the caller's 777", e.Kind, e.UnixNs)
		}
	}
	if got, want := fmt.Sprint(atHub.Journal.Recent(0)), fmt.Sprint(stepHub.Journal.Recent(0)); got != want || atHub.Journal.Len() == 0 {
		t.Errorf("journal after one publication:\n%s\nafter per-step publication:\n%s", got, want)
	}
	for _, c := range []struct {
		name     string
		at, step *telemetry.Counter
	}{
		{"mispredictions", atHub.Mispredictions, stepHub.Mispredictions},
		{"phase transitions", atHub.PhaseTransitions, stepHub.PhaseTransitions},
		{"steps", atHub.Steps, stepHub.Steps},
		{"GPHT hits", atHub.GPHTHits, stepHub.GPHTHits},
		{"GPHT misses", atHub.GPHTMisses, stepHub.GPHTMisses},
	} {
		if c.at.Value() != c.step.Value() {
			t.Errorf("%s: %d after one publication, %d after per-step publication", c.name, c.at.Value(), c.step.Value())
		}
	}
	if got, want := fmt.Sprint(atHub.Accuracy().Confusion), fmt.Sprint(stepHub.Accuracy().Confusion); got != want {
		t.Errorf("confusion after one publication %s, after per-step publication %s", got, want)
	}
}
