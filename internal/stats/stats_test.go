package stats

import (
	"math"
	"testing"
	"testing/quick"

	"phasemon/internal/phase"
)

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Mean(xs); math.Abs(got-2.8) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestVariation(t *testing.T) {
	cases := []struct {
		xs        []float64
		threshold float64
		want      float64
	}{
		{nil, 0.005, 0},
		{[]float64{1}, 0.005, 0},
		{[]float64{0.01, 0.01, 0.01}, 0.005, 0},
		{[]float64{0.00, 0.01, 0.00}, 0.005, 1},
		{[]float64{0.00, 0.01, 0.011, 0.02}, 0.005, 2.0 / 3},
		// Exactly at the threshold does not count as a change.
		{[]float64{0, 0.005}, 0.005, 0},
	}
	for _, c := range cases {
		if got := Variation(c.xs, c.threshold); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Variation(%v, %v) = %v, want %v", c.xs, c.threshold, got, c.want)
		}
	}
}

func TestVariationBounds(t *testing.T) {
	f := func(xs []float64) bool {
		v := Variation(xs, 0.005)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyQuadrants(t *testing.T) {
	cases := []struct {
		mem, vari float64
		want      Quadrant
	}{
		{0.001, 0.01, Q1}, // stable, CPU bound: most of SPEC
		{0.110, 0.05, Q2}, // mcf: memory bound, stable
		{0.021, 0.40, Q3}, // applu: variable, memory bound
		{0.006, 0.30, Q4}, // variable but little to save
	}
	for _, c := range cases {
		got := Classify(c.mem, c.vari, DefaultSavingsSplit, DefaultVariationSplit)
		if got != c.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", c.mem, c.vari, got, c.want)
		}
	}
}

func TestQuadrantString(t *testing.T) {
	if Q3.String() != "Q3" {
		t.Errorf("Q3.String() = %q", Q3.String())
	}
	if Quadrant(9).String() != "Q(9)" {
		t.Errorf("Quadrant(9).String() = %q", Quadrant(9).String())
	}
}

func TestTally(t *testing.T) {
	var ta Tally
	if _, err := ta.Accuracy(); err == nil {
		t.Error("empty tally should error")
	}
	ta.Record(1, 1)
	ta.Record(2, 1)
	ta.Record(3, 3)
	ta.Record(4, 4)
	if ta.Total() != 4 || ta.Correct() != 3 {
		t.Errorf("tally = %d/%d", ta.Correct(), ta.Total())
	}
	a, err := ta.Accuracy()
	if err != nil || math.Abs(a-0.75) > 1e-12 {
		t.Errorf("Accuracy = %v, %v", a, err)
	}
	ta.Reset()
	if ta.Total() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestConfusion(t *testing.T) {
	c, err := NewConfusion(6)
	if err != nil {
		t.Fatal(err)
	}
	c.Record(1, 1)
	c.Record(1, 1)
	c.Record(2, 1) // actual 1 predicted as 2
	c.Record(6, 6)
	c.Record(phase.None, 3) // unpredicted interval
	if got := c.Count(1, 1); got != 2 {
		t.Errorf("Count(1,1) = %d", got)
	}
	if got := c.Count(2, 1); got != 1 {
		t.Errorf("Count(2,1) = %d", got)
	}
	a, ok := c.PerPhaseAccuracy(1)
	if !ok || math.Abs(a-2.0/3) > 1e-12 {
		t.Errorf("PerPhaseAccuracy(1) = %v, %v", a, ok)
	}
	if _, ok := c.PerPhaseAccuracy(4); ok {
		t.Error("PerPhaseAccuracy of unseen phase should report !ok")
	}
	a, ok = c.PerPhaseAccuracy(3)
	if !ok || a != 0 {
		t.Errorf("PerPhaseAccuracy(3) = %v, %v (None prediction must count as wrong)", a, ok)
	}
	if _, err := NewConfusion(0); err == nil {
		t.Error("NewConfusion(0) should fail")
	}
}

func TestConfusionCountsExport(t *testing.T) {
	c, err := NewConfusion(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPhases() != 3 {
		t.Errorf("NumPhases = %d", c.NumPhases())
	}
	c.Record(2, 1)
	c.Record(1, 1)
	m := c.Counts()
	if len(m) != 4 || len(m[0]) != 4 {
		t.Fatalf("Counts is %dx%d, want 4x4", len(m), len(m[0]))
	}
	if m[1][2] != 1 || m[1][1] != 1 {
		t.Errorf("Counts = %v", m)
	}
	// The export is a copy: mutating it must not touch the matrix.
	m[1][2] = 99
	if c.Count(2, 1) != 1 {
		t.Error("Counts must return a copy")
	}
}

func TestConfusionRowNormalized(t *testing.T) {
	c, err := NewConfusion(3)
	if err != nil {
		t.Fatal(err)
	}
	c.Record(1, 1)
	c.Record(2, 1)
	c.Record(2, 1)
	c.Record(phase.None, 2) // unpredicted interval for actual 2
	n := c.RowNormalized()
	if math.Abs(n[1][1]-1.0/3) > 1e-12 || math.Abs(n[1][2]-2.0/3) > 1e-12 {
		t.Errorf("row 1 = %v", n[1])
	}
	if n[2][0] != 1 {
		t.Errorf("row 2 = %v (None predictions normalize into column 0)", n[2])
	}
	// Rows with no observations stay all-zero — no NaN leakage.
	for j, v := range n[3] {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("empty row 3 column %d = %v, want 0", j, v)
		}
	}
	// Non-empty rows sum to 1.
	for i := 1; i <= 2; i++ {
		sum := 0.0
		for _, v := range n[i] {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestConfusionEmptyMatrixExports(t *testing.T) {
	c, err := NewConfusion(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range c.Counts() {
		for _, v := range row {
			if v != 0 {
				t.Fatalf("fresh Counts not all-zero: %v", c.Counts())
			}
		}
	}
	for _, row := range c.RowNormalized() {
		for _, v := range row {
			if v != 0 || math.IsNaN(v) {
				t.Fatalf("fresh RowNormalized not all-zero: %v", c.RowNormalized())
			}
		}
	}
}

func TestNewConfusionFromCounts(t *testing.T) {
	counts := [][]int{
		{0, 0, 0},
		{0, 5, 1},
		{0, 2, 7},
	}
	c, err := NewConfusionFromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPhases() != 2 {
		t.Errorf("NumPhases = %d, want 2", c.NumPhases())
	}
	if got := c.Count(phase.ID(2), phase.ID(1)); got != 1 {
		t.Errorf("Count(pred 2, actual 1) = %d, want 1", got)
	}
	if a, ok := c.PerPhaseAccuracy(phase.ID(2)); !ok || math.Abs(a-7.0/9.0) > 1e-12 {
		t.Errorf("PerPhaseAccuracy(2) = %v, %v", a, ok)
	}
	// The input is deep-copied: mutating it must not change the matrix.
	counts[1][1] = 99
	if got := c.Count(phase.ID(1), phase.ID(1)); got != 5 {
		t.Errorf("matrix aliases caller's slice: Count = %d, want 5", got)
	}
	// Round trip through Counts.
	c2, err := NewConfusionFromCounts(c.Counts())
	if err != nil {
		t.Fatal(err)
	}
	if c2.Count(phase.ID(1), phase.ID(2)) != 2 {
		t.Error("Counts -> NewConfusionFromCounts round trip lost data")
	}
	// Malformed grids are rejected.
	for name, bad := range map[string][][]int{
		"empty":    {},
		"1x1":      {{0}},
		"ragged":   {{0, 0}, {0}},
		"negative": {{0, 0}, {0, -1}},
	} {
		if _, err := NewConfusionFromCounts(bad); err == nil {
			t.Errorf("%s grid accepted", name)
		}
	}
}
