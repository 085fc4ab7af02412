package phase

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultTableMatchesPaperTable1(t *testing.T) {
	tab := Default()
	if got, want := tab.NumPhases(), 6; got != want {
		t.Fatalf("NumPhases = %d, want %d", got, want)
	}
	cases := []struct {
		mem  float64
		want ID
	}{
		{0.0, 1},
		{0.004999, 1},
		{0.005, 2}, // boundary belongs to the higher phase
		{0.0075, 2},
		{0.010, 3},
		{0.0149, 3},
		{0.015, 4},
		{0.0199, 4},
		{0.020, 5},
		{0.0299, 5},
		{0.030, 6},
		{0.5, 6},
	}
	for _, c := range cases {
		if got := tab.Classify(Sample{MemPerUop: c.mem}); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.mem, got, c.want)
		}
	}
}

func TestTableRangeRoundTrip(t *testing.T) {
	tab := Default()
	for i := 1; i <= tab.NumPhases(); i++ {
		lo, hi := tab.Range(ID(i))
		if lo >= hi {
			t.Fatalf("phase %d: empty range [%v,%v)", i, lo, hi)
		}
		// The low endpoint is inside the phase.
		if got := tab.Classify(Sample{MemPerUop: lo}); got != ID(i) {
			t.Errorf("phase %d: Classify(lo=%v) = %v", i, lo, got)
		}
		// A point just below hi is inside the phase.
		probe := hi - 1e-9
		if math.IsInf(hi, 1) {
			probe = lo * 10
		}
		if got := tab.Classify(Sample{MemPerUop: probe}); got != ID(i) {
			t.Errorf("phase %d: Classify(%v) = %v", i, probe, got)
		}
	}
}

func TestTableRangeInvalidID(t *testing.T) {
	tab := Default()
	for _, id := range []ID{None, -1, 7, 100} {
		lo, hi := tab.Range(id)
		if !math.IsNaN(lo) || !math.IsNaN(hi) {
			t.Errorf("Range(%v) = (%v,%v), want NaNs", id, lo, hi)
		}
	}
}

func TestClassifyPropertyRangeContainsSample(t *testing.T) {
	tab := Default()
	f := func(raw float64) bool {
		m := math.Abs(raw)
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return true
		}
		// Scale arbitrary floats into a plausible Mem/Uop band too.
		m = math.Mod(m, 0.08)
		id := tab.Classify(Sample{MemPerUop: m})
		if !id.Valid(tab.NumPhases()) {
			return false
		}
		lo, hi := tab.Range(id)
		return m >= lo && m < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyPropertyMonotone(t *testing.T) {
	// A larger Mem/Uop never maps to a smaller phase number.
	tab := Default()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a := rng.Float64() * 0.06
		b := rng.Float64() * 0.06
		if a > b {
			a, b = b, a
		}
		pa := tab.Classify(Sample{MemPerUop: a})
		pb := tab.Classify(Sample{MemPerUop: b})
		if pa > pb {
			t.Fatalf("monotonicity violated: Classify(%v)=%v > Classify(%v)=%v", a, pa, b, pb)
		}
	}
}

func TestClassifyDegenerateInputs(t *testing.T) {
	tab := Default()
	for _, m := range []float64{math.NaN(), -1, -1e-12} {
		if got := tab.Classify(Sample{MemPerUop: m}); got != 1 {
			t.Errorf("Classify(%v) = %v, want clamped to phase 1", m, got)
		}
	}
	if got := tab.Classify(Sample{MemPerUop: math.Inf(1)}); got != ID(tab.NumPhases()) {
		t.Errorf("Classify(+Inf) = %v, want top phase", got)
	}
}

func TestNewTableValidation(t *testing.T) {
	bad := [][]float64{
		nil,
		{},
		{0},
		{-0.1},
		{0.01, 0.01},
		{0.02, 0.01},
		{math.NaN()},
		{math.Inf(1)},
	}
	for _, b := range bad {
		if _, err := NewTable("x", b); err == nil {
			t.Errorf("NewTable(%v): expected error", b)
		}
	}
	if _, err := NewTable("ok", []float64{0.005, 0.010}); err != nil {
		t.Errorf("NewTable(valid): %v", err)
	}
}

func TestNewTableCopiesBounds(t *testing.T) {
	b := []float64{0.01, 0.02}
	tab, err := NewTable("x", b)
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 0.5 // mutate caller's slice
	if got := tab.Classify(Sample{MemPerUop: 0.015}); got != 2 {
		t.Errorf("table affected by caller mutation: Classify(0.015) = %v, want 2", got)
	}
	got := tab.Bounds()
	got[0] = 99
	if tab.Classify(Sample{MemPerUop: 0.005}) != 1 {
		t.Error("table affected by mutating Bounds() result")
	}
}

func TestMustNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewTable with bad bounds did not panic")
		}
	}()
	MustNewTable("bad", nil)
}

func TestDescribeMentionsEveryPhase(t *testing.T) {
	d := Default().Describe()
	for _, want := range []string{"< 0.005", "[0.005,0.010)", "[0.020,0.030)", "> 0.030", "cpu-bound", "memory-bound"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() missing %q:\n%s", want, d)
		}
	}
}

func TestIDString(t *testing.T) {
	if got := None.String(); got != "P?" {
		t.Errorf("None.String() = %q", got)
	}
	if got := ID(3).String(); got != "P3" {
		t.Errorf("ID(3).String() = %q", got)
	}
}

func TestIDValid(t *testing.T) {
	if None.Valid(6) {
		t.Error("None should not be valid")
	}
	if !ID(1).Valid(6) || !ID(6).Valid(6) {
		t.Error("boundary IDs should be valid")
	}
	if ID(7).Valid(6) || ID(-2).Valid(6) {
		t.Error("out-of-range IDs should be invalid")
	}
}

func TestUPCTableInvertsOrdering(t *testing.T) {
	tab := DefaultUPC()
	if tab.NumPhases() != 6 {
		t.Fatalf("NumPhases = %d", tab.NumPhases())
	}
	// High UPC -> phase 1, low UPC -> phase 6.
	if got := tab.Classify(Sample{UPC: 1.9}); got != 1 {
		t.Errorf("Classify(UPC=1.9) = %v, want 1", got)
	}
	if got := tab.Classify(Sample{UPC: 0.05}); got != 6 {
		t.Errorf("Classify(UPC=0.05) = %v, want 6", got)
	}
	// Monotone: higher UPC never maps to a higher phase number.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		a, b := rng.Float64()*2.2, rng.Float64()*2.2
		if a > b {
			a, b = b, a
		}
		pa := tab.Classify(Sample{UPC: a})
		pb := tab.Classify(Sample{UPC: b})
		if pb > pa {
			t.Fatalf("UPC monotonicity violated: %v->%v, %v->%v", a, pa, b, pb)
		}
	}
}

func TestUPCTableValidation(t *testing.T) {
	if _, err := NewUPCTable("x", nil); err == nil {
		t.Error("expected error for empty bounds")
	}
	if _, err := NewUPCTable("x", []float64{0.5, 0.4}); err == nil {
		t.Error("expected error for descending bounds")
	}
}

func TestParseTable(t *testing.T) {
	tab, err := ParseTable("cli", "0.005, 0.010,0.015,0.020,0.030")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumPhases() != 6 {
		t.Fatalf("NumPhases = %d", tab.NumPhases())
	}
	if got := tab.Classify(Sample{MemPerUop: 0.025}); got != 5 {
		t.Errorf("Classify(0.025) = %v", got)
	}
	bad := []string{"", "abc", "0.01,abc", "0.02,0.01", "-1"}
	for _, spec := range bad {
		if _, err := ParseTable("x", spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	// Trailing commas and spaces are tolerated.
	if _, err := ParseTable("x", "0.01, 0.02, "); err != nil {
		t.Errorf("trailing comma rejected: %v", err)
	}
}

// TestFromCounters pins the counter-to-sample conversion: plain
// division, and a zero divisor reads as 0 instead of NaN or Inf.
func TestFromCounters(t *testing.T) {
	for _, c := range []struct {
		uops, memTx, cycles uint64
		want                Sample
	}{
		{100, 1, 50, Sample{MemPerUop: 0.01, UPC: 2}},
		{0, 7, 50, Sample{MemPerUop: 0, UPC: 0}},
		{100, 3, 0, Sample{MemPerUop: 0.03, UPC: 0}},
		{0, 0, 0, Sample{}},
	} {
		if got := FromCounters(c.uops, c.memTx, c.cycles); got != c.want {
			t.Errorf("FromCounters(%d, %d, %d) = %+v, want %+v", c.uops, c.memTx, c.cycles, got, c.want)
		}
	}
}
