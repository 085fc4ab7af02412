package analysis

import (
	"math"
	"math/rand"
	"testing"

	"phasemon/internal/workload"
)

// threeModes draws from three well-separated Mem/Uop modes.
func threeModes(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	modes := []float64{0.003, 0.018, 0.035}
	for i := range out {
		out[i] = modes[rng.Intn(3)] + rng.NormFloat64()*0.0006
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

func TestKMeans1DFindsSeparatedModes(t *testing.T) {
	vals := threeModes(3000, 1)
	centers, wcss, err := KMeans1D(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.003, 0.018, 0.035}
	for i, c := range centers {
		if math.Abs(c-want[i]) > 0.001 {
			t.Errorf("center %d = %v, want ~%v", i, c, want[i])
		}
	}
	if wcss <= 0 {
		t.Errorf("WCSS = %v", wcss)
	}
	// Centers are sorted.
	for i := 1; i < len(centers); i++ {
		if centers[i] < centers[i-1] {
			t.Fatal("centers not sorted")
		}
	}
}

func TestKMeans1DValidation(t *testing.T) {
	if _, _, err := KMeans1D(nil, 2); err == nil {
		t.Error("empty values accepted")
	}
	if _, _, err := KMeans1D([]float64{1, 2}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := KMeans1D([]float64{1, 2}, 3); err == nil {
		t.Error("k > n accepted")
	}
}

func TestKMeans1DWCSSDecreasesWithK(t *testing.T) {
	vals := threeModes(1000, 2)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		_, w, err := KMeans1D(vals, k)
		if err != nil {
			t.Fatal(err)
		}
		if w > prev+1e-12 {
			t.Fatalf("WCSS increased at k=%d: %v after %v", k, w, prev)
		}
		prev = w
	}
}

func TestSuggestPhaseCount(t *testing.T) {
	// Three clean modes: the elbow sits at 3.
	vals := threeModes(2000, 4)
	k, err := SuggestPhaseCount(vals, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("suggested %d phases for a 3-mode distribution", k)
	}
	// A constant stream needs one phase.
	constVals := make([]float64, 100)
	for i := range constVals {
		constVals[i] = 0.01
	}
	k, err = SuggestPhaseCount(constVals, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("suggested %d phases for a constant stream", k)
	}
	// Validation.
	if _, err := SuggestPhaseCount(vals, 1, 0.5); err == nil {
		t.Error("maxK=1 accepted")
	}
	if _, err := SuggestPhaseCount(vals, 8, 0); err == nil {
		t.Error("zero improvement accepted")
	}
	if _, err := SuggestPhaseCount(vals, 8, 1); err == nil {
		t.Error("improvement=1 accepted")
	}
}

func TestSuggestPhaseCountOnApplu(t *testing.T) {
	// applu's stream has three dominant levels (phases 2/5/6): the
	// elbow should land near 3.
	p, err := workload.ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	mems := workload.MemSeries(workload.Collect(p.Generator(workload.Params{Seed: 1, Intervals: 2000}), 0))
	k, err := SuggestPhaseCount(mems, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if k < 2 || k > 4 {
		t.Errorf("suggested %d phases for applu, want ~3", k)
	}
}
