package core

import (
	"testing"

	"phasemon/internal/phase"
)

func TestNewDurationPredictorValidation(t *testing.T) {
	if _, err := NewDurationPredictor(0, 0.25); err == nil {
		t.Error("zero phases accepted")
	}
	if _, err := NewDurationPredictor(6, -0.1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := NewDurationPredictor(6, 1.1); err == nil {
		t.Error("alpha > 1 accepted")
	}
	p, err := NewDurationPredictor(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "Duration" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestDurationPredictorLearnsSquareWave(t *testing.T) {
	// A strict 10/5 square wave between phases 1 and 4: after a few
	// periods the predictor should anticipate both transitions.
	tab := phase.Default()
	var ids []phase.ID
	for i := 0; i < 40; i++ {
		for j := 0; j < 10; j++ {
			ids = append(ids, 1)
		}
		for j := 0; j < 5; j++ {
			ids = append(ids, 4)
		}
	}
	obs := obsFromPhases(tab, ids)
	p, err := NewDurationPredictor(6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	acc := accuracy(t, p, obs)
	// Last value scores 1 - 2/15 = 86.7% here; the duration predictor
	// must beat it by anticipating transitions.
	lv := accuracy(t, NewLastValue(), obs)
	if acc <= lv {
		t.Errorf("duration accuracy %v not above last value %v", acc, lv)
	}
	if acc < 0.93 {
		t.Errorf("duration accuracy %v, want > 0.93 on a strict square wave", acc)
	}
}

func TestDurationPredictorWeakerThanGPHTOnPatterns(t *testing.T) {
	// On applu-style multi-phase patterns the first-order successor
	// model is ambiguous and loses to the GPHT — the gap that
	// motivates pattern-based prediction.
	tab := phase.Default()
	pat := []phase.ID{5, 2, 6, 2, 5, 5, 2, 6, 6, 2}
	obs := obsFromPhases(tab, repeatPattern(pat, 2000))
	dur, err := NewDurationPredictor(6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	dAcc := accuracy(t, dur, obs)
	gAcc := accuracy(t, MustNewGPHT(DefaultGPHTConfig()), obs)
	if dAcc >= gAcc {
		t.Errorf("duration predictor %v should lose to GPHT %v on multi-phase patterns", dAcc, gAcc)
	}
}

func TestDurationPredictorClampsInvalidPhases(t *testing.T) {
	p, err := NewDurationPredictor(6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []phase.ID{-1, 0, 99} {
		got := p.Observe(Observation{Phase: id})
		if !got.Valid(6) {
			t.Errorf("Observe(%v) = %v", id, got)
		}
	}
}

func TestDurationPredictorReset(t *testing.T) {
	tab := phase.Default()
	obs := obsFromPhases(tab, repeatPattern([]phase.ID{1, 1, 1, 5, 5}, 200))
	p, err := NewDurationPredictor(6, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	a := accuracy(t, p, obs)
	b := accuracy(t, p, obs) // Evaluate resets
	if a != b {
		t.Errorf("accuracy changed after reset: %v vs %v", a, b)
	}
}
