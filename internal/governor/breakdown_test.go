package governor

import (
	"testing"
)

func TestMispredictBreakdownAgreesWithTally(t *testing.T) {
	r, err := Run(gen(t, "applu_in", 400), Proactive(8, 128), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cells := MispredictBreakdown(r, 6)
	if len(cells) != 6 {
		t.Fatalf("%d cells, want one per canonical class", len(cells))
	}
	var intervals, misses int
	for i, c := range cells {
		if int(c.Class) != i+1 {
			t.Errorf("cell %d holds class %v, want ascending order", i, c.Class)
		}
		if c.Transition+c.Steady != c.Total {
			t.Errorf("class %v: transition %d + steady %d != total %d", c.Class, c.Transition, c.Steady, c.Total)
		}
		intervals += c.Intervals
		misses += c.Total
	}
	// The first interval is unscored, so cells cover len(Log)−1
	// intervals and the miss count matches the run's accuracy tally.
	if want := len(r.Log) - 1; intervals != want {
		t.Errorf("cells cover %d intervals, want %d", intervals, want)
	}
	if want := r.Accuracy.Total() - r.Accuracy.Correct(); misses != want {
		t.Errorf("cells count %d misses, tally counts %d", misses, want)
	}
	if misses == 0 {
		t.Error("managed applu run reports zero mispredictions; breakdown is vacuous")
	}
}

func TestMispredictBreakdownTransitionSplit(t *testing.T) {
	// Under last-value prediction every miss on applu's recurring
	// phase pattern happens exactly at a transition: inside a steady
	// run, "same as last interval" is always right.
	r, err := Run(gen(t, "applu_in", 400), Reactive(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var total, transition int
	for _, c := range MispredictBreakdown(r, 6) {
		total += c.Total
		transition += c.Transition
	}
	if total == 0 {
		t.Fatal("reactive applu run has no mispredictions to split")
	}
	if transition != total {
		t.Errorf("last-value misses: %d of %d at transitions, want all", transition, total)
	}
}
