package core

import (
	"fmt"
	"testing"
	"time"

	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
)

// TestMonitorStepInstrumentation wires the hub at construction
// (WithTelemetry) — the only wiring surface since the deprecated
// SetTelemetry retrofit setters were removed — and verifies the
// instrument flow end to end, including the GPHT hit/miss counters the
// monitor reports for its predictor.
func TestMonitorStepInstrumentation(t *testing.T) {
	cls := phase.Default()
	gpht := MustNewGPHT(GPHTConfig{GPHRDepth: 2, PHTEntries: 16, NumPhases: cls.NumPhases()})
	hub := telemetry.NewHub(cls.NumPhases())
	mon, err := NewMonitor(cls, gpht, WithTelemetry(hub))
	if err != nil {
		t.Fatal(err)
	}
	if mon.Telemetry() != hub {
		t.Fatal("Telemetry() does not report the construction-time hub")
	}

	// Phase 1 (Mem/Uop < 0.005), then phase 6 (> 0.030): one
	// transition, one scored (mis)prediction.
	mon.Step(phase.Sample{MemPerUop: 0.001, UPC: 1.5})
	mon.Step(phase.Sample{MemPerUop: 0.050, UPC: 0.4})

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
	if mon.Steps() != 2 || mon.Tally().Total() != 1 {
		t.Errorf("monitor accounting disturbed: steps=%d tally=%d", mon.Steps(), mon.Tally().Total())
	}

	// A monitor built without a hub never instruments: construction
	// decides observability for the monitor's lifetime.
	plain, err := NewMonitor(cls, MustNewGPHT(GPHTConfig{GPHRDepth: 2, PHTEntries: 16, NumPhases: cls.NumPhases()}))
	if err != nil {
		t.Fatal(err)
	}
	plain.Step(phase.Sample{MemPerUop: 0.001, UPC: 1.5})
	if got := hub.Steps.Value(); got != 2 {
		t.Errorf("unobserved monitor leaked into the hub: steps = %d", got)
	}
}

func TestMonitorStepsMatchWithAndWithoutTelemetry(t *testing.T) {
	cls := phase.Default()
	mkMon := func(tel bool) *Monitor {
		g := MustNewGPHT(GPHTConfig{GPHRDepth: 4, PHTEntries: 32, NumPhases: cls.NumPhases()})
		var opts []Option
		if tel {
			opts = append(opts, WithTelemetry(telemetry.NewHub(cls.NumPhases())))
		}
		m, err := NewMonitor(cls, g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, wired := mkMon(false), mkMon(true)
	for i := 0; i < 500; i++ {
		s := phase.Sample{MemPerUop: float64(i%7) * 0.006, UPC: 1}
		a1, n1 := plain.Step(s)
		a2, n2 := wired.Step(s)
		if a1 != a2 || n1 != n2 {
			t.Fatalf("step %d diverged: (%v,%v) vs (%v,%v)", i, a1, n1, a2, n2)
		}
	}
	if plain.Tally() != wired.Tally() {
		t.Errorf("tallies diverged: %+v vs %+v", plain.Tally(), wired.Tally())
	}
}

// TestStepAtStampsCallerTime pins the clock and publication contract
// of the observed step: StepAt never reads the hub clock, records into
// the caller's batch — the hub sees nothing until the caller publishes
// — and stamps every event it journals with the caller's timestamp,
// while Step reads the clock at most once per step, however many
// events that step journals, and publishes before it returns. Both
// predict identically and, once the batch is published, leave
// identical hub counters and confusion matrices.
func TestStepAtStampsCallerTime(t *testing.T) {
	cls := phase.Default()
	reads := 0
	clock := telemetry.WithClock(func() time.Time {
		reads++
		return time.Unix(0, int64(reads)*1000)
	})
	atHub, stepHub := telemetry.NewHub(cls.NumPhases(), clock), telemetry.NewHub(cls.NumPhases(), clock)
	mk := func(hub *telemetry.Hub) *Monitor {
		m, err := NewMonitor(cls, MustNewGPHT(GPHTConfig{GPHRDepth: 2, PHTEntries: 16, NumPhases: cls.NumPhases()}), WithTelemetry(hub))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	at, stepped := mk(atHub), mk(stepHub)
	batch := atHub.NewStepBatch()
	// Cycle phases 1, 6, 6 so scored steps journal verdicts, hits and
	// misses, with and without a transition.
	samples := []phase.Sample{{MemPerUop: 0.001, UPC: 1.5}, {MemPerUop: 0.050, UPC: 0.4}, {MemPerUop: 0.050, UPC: 0.4}}
	const steps = 30
	for i := 0; i < steps; i++ {
		s := samples[i%len(samples)]
		a1, n1 := at.StepAt(s, batch, 777)
		if reads != 0 {
			t.Fatalf("StepAt read the hub clock %d times, want 0", reads)
		}
		if got := atHub.Steps.Value(); got != 0 {
			t.Fatalf("step %d: StepAt reached the hub before publication (steps = %d)", i, got)
		}
		a2, n2 := stepped.Step(s)
		if a1 != a2 || n1 != n2 {
			t.Fatalf("step %d: StepAt (%v,%v) diverged from Step (%v,%v)", i, a1, n1, a2, n2)
		}
		if want := min(i, 1); reads != want {
			t.Fatalf("step %d: Step read the hub clock %d times, want %d (once per scored step)", i, reads, want)
		}
		if got := stepHub.Steps.Value(); got != uint64(i+1) {
			t.Fatalf("step %d: Step left the hub at %d steps, want %d (publish per step)", i, got, i+1)
		}
		reads = 0
	}
	if atHub.Journal.Len() != 0 {
		t.Fatal("StepAt journaled before publication")
	}
	batch.Publish()
	for _, e := range atHub.Journal.Recent(0) {
		if e.UnixNs != 777 {
			t.Fatalf("%v event stamped %d, want the caller's 777", e.Kind, e.UnixNs)
		}
	}
	if got, want := atHub.Journal.Len(), stepHub.Journal.Len(); got != want || got == 0 {
		t.Errorf("journal holds %d events after StepAt, %d after Step", got, want)
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
			t.Errorf("%s: %d after StepAt, %d after Step", c.name, c.at.Value(), c.step.Value())
		}
	}
	if got, want := fmt.Sprint(atHub.Accuracy().Confusion), fmt.Sprint(stepHub.Accuracy().Confusion); got != want {
		t.Errorf("confusion after StepAt %s, after Step %s", got, want)
	}
}
