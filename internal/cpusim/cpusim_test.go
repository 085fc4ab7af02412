package cpusim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func validWork(rng *rand.Rand) Work {
	return Work{
		Uops:      1e6 + rng.Float64()*1e8,
		MemPerUop: rng.Float64() * 0.06,
		CoreUPC:   0.1 + rng.Float64()*1.9,
		MLP:       1 + rng.Float64()*3,
	}
}

func TestExecuteBasicAccounting(t *testing.T) {
	m := New(DefaultConfig())
	w := Work{Uops: 100e6, MemPerUop: 0.01, CoreUPC: 1.0}
	r, err := m.Execute(w, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if r.Uops != w.Uops {
		t.Errorf("Uops = %v, want %v", r.Uops, w.Uops)
	}
	if r.Instructions != w.Uops {
		t.Errorf("Instructions default = %v, want %v (uops)", r.Instructions, w.Uops)
	}
	if got, want := r.MemTransactions, 1e6; got != want {
		t.Errorf("MemTransactions = %v, want %v", got, want)
	}
	if got, want := r.MemPerUop, 0.01; got != want {
		t.Errorf("MemPerUop = %v, want %v", got, want)
	}
	if math.Abs(r.Time-(r.ComputeTime+r.MemTime)) > 1e-15 {
		t.Errorf("Time %v != compute %v + mem %v", r.Time, r.ComputeTime, r.MemTime)
	}
	// compute = 100e6/(1.0*1.5e9) = 66.67ms; mem = 1e6*100ns = 100ms.
	if math.Abs(r.ComputeTime-100e6/1.5e9) > 1e-9 {
		t.Errorf("ComputeTime = %v", r.ComputeTime)
	}
	if math.Abs(r.MemTime-0.1) > 1e-12 {
		t.Errorf("MemTime = %v", r.MemTime)
	}
	if math.Abs(r.Cycles-r.Time*1.5e9) > 1 {
		t.Errorf("Cycles = %v, want time*f", r.Cycles)
	}
	wantUPC := r.Uops / r.Cycles
	if math.Abs(r.UPC-wantUPC) > 1e-12 {
		t.Errorf("UPC = %v, want %v", r.UPC, wantUPC)
	}
}

func TestExecuteValidation(t *testing.T) {
	m := New(DefaultConfig())
	bad := []Work{
		{},
		{Uops: -1, CoreUPC: 1},
		{Uops: 1e6, CoreUPC: 0},
		{Uops: 1e6, CoreUPC: -1},
		{Uops: 1e6, CoreUPC: 1, MemPerUop: -0.1},
		{Uops: 1e6, CoreUPC: 1, MemPerUop: math.NaN()},
		{Uops: 1e6, CoreUPC: 1, MLP: -2},
		{Uops: math.Inf(1), CoreUPC: 1},
		{Uops: 1e6, CoreUPC: 1, Instructions: -5},
	}
	for i, w := range bad {
		if _, err := m.Execute(w, 1e9); err == nil {
			t.Errorf("case %d (%+v): expected error", i, w)
		}
	}
	good := Work{Uops: 1e6, CoreUPC: 1}
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := m.Execute(good, f); err == nil {
			t.Errorf("frequency %v: expected error", f)
		}
	}
}

// TestExecuteValidMatchesExecute: on inputs that pass Execute's
// checks, the unchecked path returns Execute's result bit for bit.
func TestExecuteValidMatchesExecute(t *testing.T) {
	m := New(DefaultConfig())
	for _, w := range []Work{
		{Uops: 1e6, CoreUPC: 1},
		{Uops: 1e8, Instructions: 7e7, MemPerUop: 0.02, CoreUPC: 1.7, MLP: 2.5},
		{Uops: math.SmallestNonzeroFloat64, CoreUPC: 0.3, MemPerUop: 0.5, MLP: 0.5},
		{Uops: 3e12, Instructions: 1e12, MemPerUop: 1e-4, CoreUPC: 3},
	} {
		for _, f := range []float64{600e6, 1.5e9, math.MaxFloat64} {
			want, err := m.Execute(w, f)
			if err != nil {
				t.Fatalf("Execute(%+v, %v): %v", w, f, err)
			}
			if got := m.ExecuteValid(w, f); got != want {
				t.Errorf("ExecuteValid(%+v, %v) = %+v, Execute gives %+v", w, f, got, want)
			}
		}
	}
}

func TestMemPerUopIsDVFSInvariant(t *testing.T) {
	// The paper's central Section 4 claim: the phase metric must not
	// change with the frequency setting.
	m := New(DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	freqs := []float64{600e6, 800e6, 1000e6, 1200e6, 1400e6, 1500e6}
	for i := 0; i < 500; i++ {
		w := validWork(rng)
		ref, err := m.Execute(w, freqs[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range freqs[1:] {
			r, err := m.Execute(w, f)
			if err != nil {
				t.Fatal(err)
			}
			if r.MemPerUop != ref.MemPerUop {
				t.Fatalf("Mem/Uop varies with frequency: %v at %v Hz vs %v at %v Hz",
					r.MemPerUop, f, ref.MemPerUop, freqs[0])
			}
		}
	}
}

func TestUPCRisesAsFrequencyDrops(t *testing.T) {
	// Paper Figure 7 (top): UPC has an increasing trend with
	// decreasing frequency, strictly so when MemPerUop > 0.
	m := New(DefaultConfig())
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		w := validWork(rng)
		w.MemPerUop = 0.001 + rng.Float64()*0.05
		hi, _ := m.Execute(w, 1.5e9)
		lo, _ := m.Execute(w, 600e6)
		if !(lo.UPC > hi.UPC) {
			t.Fatalf("UPC did not rise when slowing down: %v at 600MHz vs %v at 1.5GHz (work %+v)",
				lo.UPC, hi.UPC, w)
		}
	}
}

func TestUPCFrequencyIndependentWhenCPUBound(t *testing.T) {
	m := New(DefaultConfig())
	w := Work{Uops: 100e6, MemPerUop: 0, CoreUPC: 1.9}
	hi, _ := m.Execute(w, 1.5e9)
	lo, _ := m.Execute(w, 600e6)
	if math.Abs(hi.UPC-lo.UPC) > 1e-12 {
		t.Errorf("CPU-bound UPC varies with frequency: %v vs %v", hi.UPC, lo.UPC)
	}
	if math.Abs(hi.UPC-1.9) > 1e-12 {
		t.Errorf("CPU-bound UPC = %v, want core UPC 1.9", hi.UPC)
	}
}

func TestMemoryBoundUPCShiftMagnitude(t *testing.T) {
	// The paper reports up to ~80% UPC change across the frequency
	// range for highly memory-bound configurations. Check our most
	// memory-bound Figure 7 configuration lands in that regime
	// (at least 50%, at most 120%).
	m := New(DefaultConfig())
	core, err := m.CoreUPCForTarget(0.1, 0.0475, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	w := Work{Uops: 100e6, MemPerUop: 0.0475, CoreUPC: core}
	hi, _ := m.Execute(w, 1.5e9)
	lo, _ := m.Execute(w, 600e6)
	shift := (lo.UPC - hi.UPC) / hi.UPC
	if shift < 0.5 || shift > 1.2 {
		t.Errorf("memory-bound UPC shift = %.0f%%, want 50%%..120%%", shift*100)
	}
}

func TestTimeMonotoneInFrequency(t *testing.T) {
	m := New(DefaultConfig())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := validWork(rng)
		f1 := 600e6 + rng.Float64()*900e6
		f2 := f1 + 1e6 + rng.Float64()*500e6
		r1, err1 := m.Execute(w, f1)
		r2, err2 := m.Execute(w, f2)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Time >= r2.Time // slower clock never finishes sooner
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowdownProperties(t *testing.T) {
	m := New(DefaultConfig())
	fmax := 1.5e9
	// Slowdown at fmax is exactly 1.
	if s := m.Slowdown(0.01, 1.0, fmax, fmax); math.Abs(s-1) > 1e-12 {
		t.Errorf("Slowdown(fmax) = %v, want 1", s)
	}
	// CPU-bound slowdown is the full frequency ratio.
	if s := m.Slowdown(0, 1.0, 600e6, fmax); math.Abs(s-fmax/600e6) > 1e-9 {
		t.Errorf("CPU-bound slowdown = %v, want %v", s, fmax/600e6)
	}
	// Memory-bound slowdown approaches 1.
	s := m.Slowdown(0.1, 1.0, 600e6, fmax)
	if s > 1.15 {
		t.Errorf("highly memory-bound slowdown = %v, want near 1", s)
	}
	// Slowdown decreases as memory intensity rises.
	prev := math.Inf(1)
	for _, mem := range []float64{0, 0.005, 0.01, 0.02, 0.03, 0.05} {
		s := m.Slowdown(mem, 1.0, 600e6, fmax)
		if s > prev {
			t.Errorf("slowdown not monotone in mem/uop: %v after %v", s, prev)
		}
		prev = s
	}
}

func TestCoreUPCForTargetRoundTrip(t *testing.T) {
	m := New(DefaultConfig())
	f := 1.5e9
	targets := []struct{ upc, mem float64 }{
		{1.9, 0.0}, {0.9, 0.0}, {0.5, 0.0025}, {0.3, 0.0075}, {0.1, 0.0475},
	}
	for _, tc := range targets {
		core, err := m.CoreUPCForTarget(tc.upc, tc.mem, f)
		if err != nil {
			t.Fatalf("CoreUPCForTarget(%v,%v): %v", tc.upc, tc.mem, err)
		}
		w := Work{Uops: 100e6, MemPerUop: tc.mem, CoreUPC: core}
		r, err := m.Execute(w, f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.UPC-tc.upc)/tc.upc > 1e-9 {
			t.Errorf("round trip UPC = %v, want %v", r.UPC, tc.upc)
		}
	}
}

func TestGridWorkPinsPaperGridPoints(t *testing.T) {
	// The full Figure 7 legend: every configuration must observe its
	// target (UPC, Mem/Uop) exactly at the top frequency.
	m := New(DefaultConfig())
	f := 1.5e9
	targets := []struct{ upc, mem float64 }{
		{1.9, 0.0}, {1.3, 0.0075}, {0.9, 0.0125}, {0.9, 0.0075}, {0.9, 0.0},
		{0.5, 0.0225}, {0.5, 0.0025}, {0.5, 0.0}, {0.1, 0.0475}, {0.1, 0.0325}, {0.1, 0.0},
	}
	for _, tc := range targets {
		w, err := m.GridWork(tc.upc, tc.mem, f, 100e6)
		if err != nil {
			t.Fatalf("GridWork(%v,%v): %v", tc.upc, tc.mem, err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("GridWork(%v,%v) invalid: %v", tc.upc, tc.mem, err)
		}
		r, err := m.Execute(w, f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.UPC-tc.upc)/tc.upc > 1e-9 {
			t.Errorf("grid (%v,%v): observed UPC %v", tc.upc, tc.mem, r.UPC)
		}
		if r.MemPerUop != tc.mem {
			t.Errorf("grid (%v,%v): observed Mem/Uop %v", tc.upc, tc.mem, r.MemPerUop)
		}
	}
}

func TestGridWorkFrequencyShiftShape(t *testing.T) {
	m := New(DefaultConfig())
	fmax := 1.5e9
	// CPU-bound grid work: no UPC shift at all.
	w, _ := m.GridWork(0.9, 0, fmax, 100e6)
	hi, _ := m.Execute(w, fmax)
	lo, _ := m.Execute(w, 600e6)
	if math.Abs(hi.UPC-lo.UPC) > 1e-12 {
		t.Errorf("CPU-bound grid work shifted: %v vs %v", hi.UPC, lo.UPC)
	}
	// Most memory-bound grid work: ~80% shift (paper Figure 7).
	w, _ = m.GridWork(0.1, 0.0475, fmax, 100e6)
	hi, _ = m.Execute(w, fmax)
	lo, _ = m.Execute(w, 600e6)
	shift := (lo.UPC - hi.UPC) / hi.UPC
	if shift < 0.6 || shift > 0.95 {
		t.Errorf("memory-bound grid shift = %.0f%%, want roughly 80%%", shift*100)
	}
	// Shift grows with memory intensity at fixed target UPC.
	prev := -1.0
	for _, mem := range []float64{0, 0.01, 0.02, 0.03, 0.0475} {
		w, err := m.GridWork(0.3, mem, fmax, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		hi, _ := m.Execute(w, fmax)
		lo, _ := m.Execute(w, 600e6)
		s := (lo.UPC - hi.UPC) / hi.UPC
		if s < prev-1e-12 {
			t.Errorf("shift not monotone in mem/uop: %v after %v (mem %v)", s, prev, mem)
		}
		prev = s
	}
}

func TestGridWorkValidation(t *testing.T) {
	m := New(DefaultConfig())
	if _, err := m.GridWork(0, 0.01, 1.5e9, 1e6); err == nil {
		t.Error("expected error for zero target UPC")
	}
	if _, err := m.GridWork(0.5, -1, 1.5e9, 1e6); err == nil {
		t.Error("expected error for negative mem/uop")
	}
	if _, err := m.GridWork(0.5, 0.01, 0, 1e6); err == nil {
		t.Error("expected error for zero frequency")
	}
	w, err := m.GridWork(0.5, 0.01, 1.5e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Uops != 100e6 {
		t.Errorf("zero uops should default to 100e6, got %v", w.Uops)
	}
}

func TestCoreUPCForTargetUnreachable(t *testing.T) {
	m := New(DefaultConfig())
	// mem/uop 0.05 at 1.5GHz imposes 7.5 stall cycles per uop, so UPC
	// can never reach 0.2 > 1/7.5.
	if _, err := m.CoreUPCForTarget(0.2, 0.05, 1.5e9); err == nil {
		t.Error("expected unreachable-target error")
	}
	if _, err := m.CoreUPCForTarget(0, 0.01, 1.5e9); err == nil {
		t.Error("expected error for zero target")
	}
}

func TestBIPS(t *testing.T) {
	m := New(DefaultConfig())
	w := Work{Uops: 100e6, Instructions: 80e6, MemPerUop: 0, CoreUPC: 1.0}
	r, _ := m.Execute(w, 1e9)
	// time = 100e6/1e9 = 0.1s; BIPS = 80e6/0.1/1e9 = 0.8
	if math.Abs(r.BIPS()-0.8) > 1e-9 {
		t.Errorf("BIPS = %v, want 0.8", r.BIPS())
	}
	var zero Result
	if zero.BIPS() != 0 {
		t.Error("zero result should have 0 BIPS")
	}
}

func TestNewDefaultsBadConfig(t *testing.T) {
	for _, lat := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		m := New(Config{MemLatencyS: lat})
		if m.Config().MemLatencyS != DefaultConfig().MemLatencyS {
			t.Errorf("latency %v not defaulted", lat)
		}
	}
}

func TestMaxUPCBoundary(t *testing.T) {
	// Figure 6's SPEC boundary: achievable UPC falls as Mem/Uop rises.
	m := New(DefaultConfig())
	prev := math.Inf(1)
	for _, mem := range []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05} {
		u := m.MaxUPC(mem, 2.0, 1.5e9)
		if u > prev {
			t.Errorf("MaxUPC not decreasing: %v after %v at mem %v", u, prev, mem)
		}
		prev = u
	}
}

func TestExecuteTimeAdditiveUnderChunking(t *testing.T) {
	// The machine slices work at PMI boundaries; execution time and
	// counts must be exactly additive under proportional splits, or
	// chunked runs would drift from unchunked ones.
	m := New(DefaultConfig())
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		w := validWork(rng)
		w.Instructions = w.Uops / 1.15
		f := 600e6 + rng.Float64()*900e6
		whole, err := m.Execute(w, f)
		if err != nil {
			t.Fatal(err)
		}
		frac := 0.1 + rng.Float64()*0.8
		a, b := w, w
		a.Uops = w.Uops * frac
		a.Instructions = w.Instructions * frac
		b.Uops = w.Uops - a.Uops
		b.Instructions = w.Instructions - a.Instructions
		ra, err := m.Execute(a, f)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := m.Execute(b, f)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs((ra.Time+rb.Time)-whole.Time) / whole.Time; rel > 1e-12 {
			t.Fatalf("time not additive: %v + %v != %v", ra.Time, rb.Time, whole.Time)
		}
		if rel := math.Abs((ra.MemTransactions + rb.MemTransactions) - whole.MemTransactions); rel > 1e-6*whole.MemTransactions+1e-9 {
			t.Fatalf("mem transactions not additive")
		}
	}
}
