package core

import (
	"testing"

	"phasemon/internal/phase"
)

func TestAccuracySeriesShowsGPHTWarmup(t *testing.T) {
	tab := phase.Default()
	pat := []phase.ID{5, 2, 6, 2, 2, 5, 6, 6, 2, 5}
	obs := obsFromPhases(tab, repeatPattern(pat, 1000))
	g := MustNewGPHT(DefaultGPHTConfig())
	series, err := AccuracySeries(g, obs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 10 {
		t.Fatalf("series has %d windows", len(series))
	}
	first, last := series[0], series[len(series)-1]
	if !(last > first+0.2) {
		t.Errorf("no visible warm-up: first window %v, last %v", first, last)
	}
	if last < 0.95 {
		t.Errorf("steady-state accuracy %v on a pure pattern", last)
	}
	// A short but visible ramp: the first window is below 95% of the
	// steady accuracy, and the sixth has reached it.
	if series[0] >= 0.95*last || series[5] < 0.95*last {
		t.Errorf("warm-up ramp %v, expected a short but visible one", series[:6])
	}
	// Last value has no warm-up: its first window is already at its
	// steady accuracy.
	lvSeries, err := AccuracySeries(NewLastValue(), obs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if lvLast := lvSeries[len(lvSeries)-1]; lvSeries[0] < 0.9*lvLast && lvSeries[1] < 0.9*lvLast {
		t.Errorf("last value warmed up: %v", lvSeries[:2])
	}
}

func TestAccuracySeriesValidation(t *testing.T) {
	tab := phase.Default()
	obs := obsFromPhases(tab, []phase.ID{1, 2, 3})
	if _, err := AccuracySeries(NewLastValue(), obs, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := AccuracySeries(NewLastValue(), obs, 10); err == nil {
		t.Error("window larger than stream accepted")
	}
}
