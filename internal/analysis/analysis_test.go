package analysis

import (
	"math"
	"math/rand"
	"testing"

	"phasemon/internal/core"
	"phasemon/internal/cpusim"
	"phasemon/internal/phase"
	"phasemon/internal/workload"
)

func ids(vals ...int) []phase.ID {
	out := make([]phase.ID, len(vals))
	for i, v := range vals {
		out[i] = phase.ID(v)
	}
	return out
}

func TestHistogram(t *testing.T) {
	h, err := Histogram(ids(1, 1, 2, 6), 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.25, 0, 0, 0, 0.25}
	for i := range want {
		if math.Abs(h[i]-want[i]) > 1e-12 {
			t.Errorf("h[%d] = %v, want %v", i, h[i], want[i])
		}
	}
	if _, err := Histogram(nil, 6); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := Histogram(ids(1), 0); err == nil {
		t.Error("zero phases accepted")
	}
}

func TestTransitions(t *testing.T) {
	tr, err := NewTransitions(ids(1, 1, 2, 1, 2, 2), 6)
	if err != nil {
		t.Fatal(err)
	}
	// counts is indexed by phase ID − 1.
	if got := tr.counts[0][0]; got != 1 {
		t.Errorf("count(1,1) = %d", got)
	}
	if got := tr.counts[0][1]; got != 2 {
		t.Errorf("count(1,2) = %d", got)
	}
	if got := tr.counts[1][0]; got != 1 {
		t.Errorf("count(2,1) = %d", got)
	}
	// Self loops: (1,1) and (2,2) of 5 transitions.
	if got := tr.SelfLoopFraction(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("SelfLoopFraction = %v", got)
	}
	if _, err := NewTransitions(ids(1), 6); err == nil {
		t.Error("single sample accepted")
	}
}

func TestSelfLoopEqualsLastValueAccuracy(t *testing.T) {
	// The self-loop fraction is by construction the last-value
	// predictor's accuracy; verify on a real workload stream.
	p, err := workload.ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	obs := observationStream(t, p, 1500)
	stream := phasesOf(obs)
	tr, err := NewTransitions(stream, 6)
	if err != nil {
		t.Fatal(err)
	}
	tally, err := core.Evaluate(core.NewLastValue(), obs)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := tally.Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.SelfLoopFraction()-lv) > 1e-12 {
		t.Errorf("self-loop %v != last-value accuracy %v", tr.SelfLoopFraction(), lv)
	}
}

func TestRuns(t *testing.T) {
	rs, err := Runs(ids(1, 1, 1, 2, 2, 1, 6), 6)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Count != 2 || rs[0].MaxLen != 3 || math.Abs(rs[0].MeanLen-2) > 1e-12 {
		t.Errorf("phase 1 runs: %+v", rs[0])
	}
	if rs[1].Count != 1 || rs[1].MaxLen != 2 {
		t.Errorf("phase 2 runs: %+v", rs[1])
	}
	if rs[5].Count != 1 || rs[5].MaxLen != 1 {
		t.Errorf("phase 6 runs: %+v", rs[5])
	}
	if rs[2].Count != 0 || rs[2].MeanLen != 0 {
		t.Errorf("unseen phase runs: %+v", rs[2])
	}
	if _, err := Runs(nil, 6); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestEntropy(t *testing.T) {
	// Constant stream: zero bits.
	e, err := Entropy(ids(3, 3, 3, 3), 6)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("constant entropy = %v", e)
	}
	// Uniform over 4 phases: 2 bits.
	e, err = Entropy(ids(1, 2, 3, 4), 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2) > 1e-12 {
		t.Errorf("uniform-4 entropy = %v, want 2", e)
	}
}

func TestPredictabilityBound(t *testing.T) {
	// A strict alternation is unpredictable at order 0 beyond the
	// majority rate, perfectly predictable at order 1.
	alt := ids(1, 2, 1, 2, 1, 2, 1, 2, 1, 2)
	b0, err := PredictabilityBound(alt, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b0 > 0.6 {
		t.Errorf("order-0 bound on alternation = %v, want ~0.5", b0)
	}
	b1, err := PredictabilityBound(alt, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != 1 {
		t.Errorf("order-1 bound on alternation = %v, want 1", b1)
	}
	// Bounds are monotone in order.
	rng := rand.New(rand.NewSource(3))
	stream := make([]phase.ID, 3000)
	cur := phase.ID(1)
	for i := range stream {
		if rng.Float64() < 0.25 {
			cur = phase.ID(1 + rng.Intn(6))
		}
		stream[i] = cur
	}
	prev := 0.0
	for order := 0; order <= 8; order += 2 {
		b, err := PredictabilityBound(stream, 6, order)
		if err != nil {
			t.Fatal(err)
		}
		if b < prev-1e-12 {
			t.Fatalf("bound not monotone at order %d: %v after %v", order, b, prev)
		}
		if b < 0 || b > 1 {
			t.Fatalf("bound %v out of range", b)
		}
		prev = b
	}
	// Validation.
	if _, err := PredictabilityBound(alt, 6, -1); err == nil {
		t.Error("negative order accepted")
	}
	if _, err := PredictabilityBound(ids(1, 2), 6, 5); err == nil {
		t.Error("stream shorter than order accepted")
	}
	if _, err := PredictabilityBound(alt, 20, 1); err == nil {
		t.Error("unpackable phase count accepted")
	}
	if _, err := PredictabilityBound(alt, 6, 16); err == nil {
		t.Error("unpackable order accepted")
	}
}

func TestGPHTApproachesOrder8Bound(t *testing.T) {
	// The headline use: on applu the GPHT must capture most of the
	// structure an ideal depth-8 predictor could.
	p, err := workload.ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	obs := observationStream(t, p, 3000)
	stream := phasesOf(obs)
	bound, err := PredictabilityBound(stream, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := core.MustNewGPHT(core.GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: 6})
	tally, err := core.Evaluate(g, obs)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := tally.Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc > bound+1e-9 {
		t.Fatalf("GPHT accuracy %v exceeds the order-8 bound %v — bound is broken", acc, bound)
	}
	if acc < bound-0.08 {
		t.Errorf("GPHT accuracy %v leaves more than 8 points below the order-8 bound %v", acc, bound)
	}
}

func TestQuantileTable(t *testing.T) {
	// A spread-out distribution yields a valid equal-occupancy table.
	rng := rand.New(rand.NewSource(4))
	mems := make([]float64, 5000)
	for i := range mems {
		mems[i] = 0.001 + rng.Float64()*0.05
	}
	tab, err := QuantileTable("learned", mems, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumPhases() != 6 {
		t.Fatalf("NumPhases = %d", tab.NumPhases())
	}
	// Each phase holds roughly 1/6 of the samples.
	counts := make([]int, 7)
	for _, m := range mems {
		counts[tab.Classify(phase.Sample{MemPerUop: m})]++
	}
	for p := 1; p <= 6; p++ {
		frac := float64(counts[p]) / float64(len(mems))
		if frac < 0.10 || frac > 0.23 {
			t.Errorf("phase %d occupancy %v, want ~1/6", p, frac)
		}
	}
	// Degenerate distributions fail loudly.
	if _, err := QuantileTable("x", []float64{0.01, 0.01, 0.01}, 6); err == nil {
		t.Error("constant distribution accepted")
	}
	if _, err := QuantileTable("x", nil, 6); err == nil {
		t.Error("empty distribution accepted")
	}
	if _, err := QuantileTable("x", mems, 1); err == nil {
		t.Error("single phase accepted")
	}
}

// --- helpers ---------------------------------------------------------

func observationStream(t *testing.T, p *workload.Profile, n int) []core.Observation {
	t.Helper()
	works := workload.Collect(p.Generator(workload.Params{Seed: 1, Intervals: n}), 0)
	obs, err := core.ObservationsFromWork(cpusim.New(cpusim.DefaultConfig()), works, phase.Default(), 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

func phasesOf(obs []core.Observation) []phase.ID {
	out := make([]phase.ID, len(obs))
	for i, o := range obs {
		out[i] = o.Phase
	}
	return out
}

func FuzzPredictabilityBoundStaysInRange(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		stream := make([]phase.ID, len(data))
		for i, b := range data {
			stream[i] = phase.ID(1 + int(b)%6)
		}
		for _, order := range []int{0, 1, 4, 8} {
			b, err := PredictabilityBound(stream, 6, order)
			if err != nil {
				t.Fatalf("order %d: %v", order, err)
			}
			if b < 0 || b > 1 {
				t.Fatalf("order %d: bound %v out of range", order, b)
			}
		}
	})
}
