package workload

import (
	"math"
	"testing"

	"phasemon/internal/cpusim"
	"phasemon/internal/phase"
	"phasemon/internal/stats"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 33 {
		t.Fatalf("registry has %d profiles, want the paper's 33", len(all))
	}
	seen := map[string]bool{}
	for _, p := range all {
		if p.Name == "" {
			t.Fatal("profile with empty name")
		}
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.DefaultIntervals < 100 {
			t.Errorf("%s: DefaultIntervals %d too short", p.Name, p.DefaultIntervals)
		}
		if !(p.CoreUPCMax > 0) || !(p.MLP > 0) || !(p.UopsPerInstr >= 1) {
			t.Errorf("%s: bad parameters %+v", p.Name, p)
		}
		if p.Quadrant < stats.Q1 || p.Quadrant > stats.Q4 {
			t.Errorf("%s: bad quadrant %v", p.Name, p.Quadrant)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "applu_in" {
		t.Errorf("got %q", p.Name)
	}
	if _, err := ByName("no_such_benchmark"); err == nil {
		t.Error("expected error for unknown name")
	}
	names := Names()
	if len(names) != 33 {
		t.Errorf("Names() returned %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("Names() not sorted at %d: %q, %q", i, names[i-1], names[i])
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("applu_in")
	params := Params{Seed: 42, Intervals: 200}
	a := Collect(p.Generator(params), 0)
	b := Collect(p.Generator(params), 0)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interval %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Reset reproduces the sequence on the same generator.
	g := p.Generator(params)
	first := Collect(g, 0)
	g.Reset()
	second := Collect(g, 0)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("Reset: interval %d differs", i)
		}
	}
	// A different seed produces a different sequence.
	c := Collect(p.Generator(Params{Seed: 43, Intervals: 200}), 0)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestGeneratorLengths(t *testing.T) {
	p, _ := ByName("crafty_in")
	if got := len(Collect(p.Generator(Params{Seed: 1}), 0)); got != p.DefaultIntervals {
		t.Errorf("default length = %d, want %d", got, p.DefaultIntervals)
	}
	if got := len(Collect(p.Generator(Params{Seed: 1, Intervals: 50}), 0)); got != 50 {
		t.Errorf("override length = %d, want 50", got)
	}
	// Collect's max argument truncates.
	if got := len(Collect(p.Generator(Params{Seed: 1}), 10)); got != 10 {
		t.Errorf("Collect max = %d, want 10", got)
	}
	// Exhausted generators stay exhausted.
	g := p.Generator(Params{Seed: 1, Intervals: 3})
	Collect(g, 0)
	if _, ok := g.Next(); ok {
		t.Error("generator yielded work after completion")
	}
}

func TestAllProfilesProduceValidWork(t *testing.T) {
	for _, p := range All() {
		g := p.Generator(Params{Seed: 7, Intervals: 400})
		n := 0
		for {
			w, ok := g.Next()
			if !ok {
				break
			}
			n++
			if err := w.Validate(); err != nil {
				t.Fatalf("%s interval %d: %v (work %+v)", p.Name, n, err, w)
			}
			if w.Uops != 100e6 {
				t.Fatalf("%s: granularity default not applied: %v", p.Name, w.Uops)
			}
			if w.Instructions > w.Uops {
				t.Fatalf("%s: more instructions than uops: %+v", p.Name, w)
			}
		}
		if n != 400 {
			t.Fatalf("%s: produced %d intervals", p.Name, n)
		}
	}
}

func TestProfileCalibrationMatchesDeclaredQuadrant(t *testing.T) {
	// The paper's canonical Q2/Q3/Q4 benchmarks must land in their
	// declared Figure 3 quadrants under the default splits; the other
	// benchmarks must not claim Q2/Q3 (high savings potential).
	canonical := map[string]bool{}
	for _, p := range Figure12Set() {
		canonical[p.Name] = true
	}
	for _, p := range All() {
		ws := Collect(p.Generator(Params{Seed: 11}), 0)
		mem := MemSeries(ws)
		avg := stats.Mean(mem)
		vari := stats.Variation(mem, 0.005)
		got := stats.Classify(avg, vari, stats.DefaultSavingsSplit, stats.DefaultVariationSplit)
		if canonical[p.Name] {
			if got != p.Quadrant {
				t.Errorf("%s: measured %v (avg=%.4f var=%.2f), declared %v",
					p.Name, got, avg, vari, p.Quadrant)
			}
		} else if got == stats.Q2 || got == stats.Q3 {
			t.Errorf("%s: measured %v (avg=%.4f var=%.2f) but is not a high-savings benchmark",
				p.Name, got, avg, vari)
		}
	}
}

func TestAppluMotifAdjacentEquality(t *testing.T) {
	// Roughly 46% adjacent-equal phases: last-value prediction must
	// fail more than half the time on the pure pattern.
	m := appluMotif()
	tab := phase.Default()
	same := 0
	for i := 0; i < len(m); i++ {
		a := tab.Classify(phase.Sample{MemPerUop: m[i]})
		b := tab.Classify(phase.Sample{MemPerUop: m[(i+1)%len(m)]})
		if a == b {
			same++
		}
	}
	frac := float64(same) / float64(len(m))
	if frac < 0.40 || frac > 0.52 {
		t.Errorf("applu motif adjacent-equal fraction = %.2f, want ~0.46", frac)
	}
}

func TestMemSeries(t *testing.T) {
	ws := []cpusim.Work{{MemPerUop: 0.1}, {MemPerUop: 0.2}}
	got := MemSeries(ws)
	if len(got) != 2 || got[0] != 0.1 || got[1] != 0.2 {
		t.Errorf("MemSeries = %v", got)
	}
}

func TestIPCxMEMGridShape(t *testing.T) {
	grid := IPCxMEMGrid()
	if len(grid) < 40 || len(grid) > 70 {
		t.Errorf("grid has %d points, want ~50", len(grid))
	}
	has := func(u, m float64) bool {
		for _, p := range grid {
			if p.UPC == u && p.MemPerUop == m {
				return true
			}
		}
		return false
	}
	if !has(1.9, 0) {
		t.Error("grid missing CPU-bound corner (1.9, 0)")
	}
	if !has(0.1, 0.0475) {
		t.Error("grid missing memory-bound corner (0.1, 0.0475)")
	}
	if !has(1.3, 0.0075) {
		t.Error("grid missing the paper's (1.3, 0.0075) legend point")
	}
	if has(1.9, 0.0475) {
		t.Error("grid contains point above the SPEC boundary")
	}
	for _, p := range grid {
		if p.UPC > SPECBoundary(p.MemPerUop)+1e-12 {
			t.Errorf("grid point (%v, %v) above boundary", p.UPC, p.MemPerUop)
		}
	}
}

func TestSPECBoundaryShape(t *testing.T) {
	if got := SPECBoundary(0); got != 2.0 {
		t.Errorf("SPECBoundary(0) = %v, want 2.0", got)
	}
	prev := math.Inf(1)
	for _, m := range []float64{0, 0.005, 0.01, 0.02, 0.03, 0.05, -1} {
		b := SPECBoundary(m)
		if b <= 0 {
			t.Errorf("SPECBoundary(%v) = %v", m, b)
		}
		if m >= 0 && b > prev {
			t.Errorf("boundary not decreasing at %v", m)
		}
		if m >= 0 {
			prev = b
		}
	}
	// Every Figure 7 legend point lies under the boundary.
	for _, p := range Figure7Points() {
		if p.UPC > SPECBoundary(p.MemPerUop)+1e-9 {
			t.Errorf("Figure 7 point (%v, %v) above boundary", p.UPC, p.MemPerUop)
		}
	}
}

func TestFigure7PointsAreOnGridLegend(t *testing.T) {
	pts := Figure7Points()
	if len(pts) != 11 {
		t.Fatalf("Figure7Points has %d entries, want 11", len(pts))
	}
	if pts[0] != (GridPoint{1.9, 0}) || pts[8] != (GridPoint{0.1, 0.0475}) {
		t.Errorf("unexpected legend entries: %+v", pts)
	}
}

func TestBenchmarkSets(t *testing.T) {
	if got := len(Figure12Set()); got != 8 {
		t.Errorf("Figure12Set has %d entries, want 8", got)
	}
	if got := len(Figure5Set()); got != 18 {
		t.Errorf("Figure5Set has %d entries, want 18", got)
	}
	vs := VariableSet()
	if got := len(vs); got != 6 {
		t.Errorf("VariableSet has %d entries, want 6", got)
	}
	if vs[len(vs)-1].Name != "equake_in" {
		t.Errorf("VariableSet order: %v", vs[len(vs)-1].Name)
	}
}

func TestRecipesStayInPhysicalRange(t *testing.T) {
	for _, p := range All() {
		ws := Collect(p.Generator(Params{Seed: 3, Intervals: 500}), 0)
		for i, w := range ws {
			if w.MemPerUop < 0 || w.MemPerUop > 0.25 {
				t.Fatalf("%s interval %d: mem/uop %v out of range", p.Name, i, w.MemPerUop)
			}
			if w.CoreUPC < 0.05 || w.CoreUPC > 3 {
				t.Fatalf("%s interval %d: core UPC %v out of range", p.Name, i, w.CoreUPC)
			}
		}
	}
}

func TestCustomGranularity(t *testing.T) {
	p, _ := ByName("swim_in")
	g := p.Generator(Params{Seed: 1, Intervals: 5, GranularityUops: 10e6})
	w, ok := g.Next()
	if !ok || w.Uops != 10e6 {
		t.Errorf("granularity override: %+v ok=%v", w, ok)
	}
}

func TestEveryProfileIsDocumented(t *testing.T) {
	for _, p := range All() {
		if len(p.Description) < 40 {
			t.Errorf("%s: description too thin (%d chars)", p.Name, len(p.Description))
		}
	}
}

func TestCalibrationRobustAcrossSeeds(t *testing.T) {
	// The headline calibration (applu's adjacent-equality, the
	// quadrant memberships) must not be an artifact of one seed.
	tab := phase.Default()
	applu, err := ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		works := Collect(applu.Generator(Params{Seed: seed, Intervals: 2000}), 0)
		same := 0
		prev := phase.None
		for i, w := range works {
			p := tab.Classify(phase.Sample{MemPerUop: w.MemPerUop})
			if i > 0 && p == prev {
				same++
			}
			prev = p
		}
		frac := float64(same) / float64(len(works)-1)
		if frac < 0.40 || frac > 0.55 {
			t.Errorf("seed %d: applu adjacent-equality %.2f outside calibration band", seed, frac)
		}
		mem := MemSeries(works)
		avg := stats.Mean(mem)
		vari := stats.Variation(mem, 0.005)
		if got := stats.Classify(avg, vari, stats.DefaultSavingsSplit, stats.DefaultVariationSplit); got != stats.Q3 {
			t.Errorf("seed %d: applu classified %v, want Q3", seed, got)
		}
	}
}
