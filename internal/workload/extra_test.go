package workload

import (
	"testing"

	"phasemon/internal/cpusim"
	"phasemon/internal/memhier"
	"phasemon/internal/phase"
)

func TestInterleaveAlternatesQuanta(t *testing.T) {
	a := repeat("a", cpusim.Work{Uops: 1e6, MemPerUop: 0.001, CoreUPC: 1}, 6)
	b := repeat("b", cpusim.Work{Uops: 1e6, MemPerUop: 0.033, CoreUPC: 1}, 6)
	g, err := Interleave(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "a+b" {
		t.Errorf("Name = %q", g.Name())
	}
	got := Collect(g, 0)
	if len(got) != 12 {
		t.Fatalf("%d intervals, want 12", len(got))
	}
	wantMem := []float64{0.001, 0.001, 0.033, 0.033, 0.001, 0.001, 0.033, 0.033, 0.001, 0.001, 0.033, 0.033}
	for i, w := range got {
		if w.MemPerUop != wantMem[i] {
			t.Fatalf("interval %d: mem %v, want %v", i, w.MemPerUop, wantMem[i])
		}
	}
}

func TestInterleaveDrainsLongerProgram(t *testing.T) {
	a := repeat("a", cpusim.Work{Uops: 1e6, MemPerUop: 0.001, CoreUPC: 1}, 2)
	b := repeat("b", cpusim.Work{Uops: 1e6, MemPerUop: 0.033, CoreUPC: 1}, 8)
	g, err := Interleave(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(g, 0)
	if len(got) != 10 {
		t.Fatalf("%d intervals, want 10 (2 + 8)", len(got))
	}
	// After a finishes, only b's intervals remain.
	for _, w := range got[len(got)-6:] {
		if w.MemPerUop != 0.033 {
			t.Fatalf("tail interval from wrong program: %v", w.MemPerUop)
		}
	}
	g.Reset()
	if again := Collect(g, 0); len(again) != 10 {
		t.Errorf("after Reset: %d", len(again))
	}
}

func TestInterleaveValidation(t *testing.T) {
	a := repeat("a", cpusim.Work{Uops: 1e6, CoreUPC: 1}, 1)
	if _, err := Interleave(nil, a, 1); err == nil {
		t.Error("nil generator accepted")
	}
	if _, err := Interleave(a, a, 0); err == nil {
		t.Error("zero quantum accepted")
	}
}

func TestInterleavePreservesPhaseStreams(t *testing.T) {
	// Interleaving two stable programs produces a square-wave phase
	// stream with the quantum as the period — predictable by the GPHT,
	// demonstrating robustness to multiprogramming.
	pa, err := ByName("crafty_in")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ByName("swim_in")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Interleave(
		pa.Generator(Params{Seed: 1, Intervals: 300}),
		pb.Generator(Params{Seed: 1, Intervals: 300}),
		5,
	)
	if err != nil {
		t.Fatal(err)
	}
	tab := phase.Default()
	works := Collect(g, 0)
	if len(works) != 600 {
		t.Fatalf("%d intervals", len(works))
	}
	// Count quantum-aligned phase switches.
	switches := 0
	for i := 1; i < len(works); i++ {
		a := tab.Classify(phase.Sample{MemPerUop: works[i-1].MemPerUop})
		b := tab.Classify(phase.Sample{MemPerUop: works[i].MemPerUop})
		if a != b {
			switches++
			if i%5 != 0 {
				t.Fatalf("phase switch off quantum boundary at %d", i)
			}
		}
	}
	if switches < 100 {
		t.Errorf("only %d phase switches; interleave not alternating", switches)
	}
}

func TestFromLocality(t *testing.T) {
	hier := memhier.Default()
	sections := []LocalityPhase{
		{Profile: memhier.AccessProfile{AccessesPerUop: 0.35, WorkingSetBytes: 16 << 10}, Intervals: 4, CoreUPC: 1.5},
		{Profile: memhier.AccessProfile{AccessesPerUop: 0.35, WorkingSetBytes: 64 << 20}, Intervals: 2, CoreUPC: 0.8},
	}
	g, err := FromLocality("ws_program", hier, sections, 100e6, 12)
	if err != nil {
		t.Fatal(err)
	}
	works := Collect(g, 0)
	if len(works) != 12 {
		t.Fatalf("%d intervals", len(works))
	}
	tab := phase.Default()
	// Sections repeat 4+2: intervals 0-3 cache-resident (phase 1),
	// 4-5 memory-streaming (high phase), then again.
	for i, w := range works {
		p := tab.Classify(phase.Sample{MemPerUop: w.MemPerUop})
		inHot := i%6 >= 4
		if inHot && p < 5 {
			t.Fatalf("interval %d: expected memory-bound phase, got %v (mem %v)", i, p, w.MemPerUop)
		}
		if !inHot && p != 1 {
			t.Fatalf("interval %d: expected phase 1, got %v (mem %v)", i, p, w.MemPerUop)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("interval %d invalid: %v", i, err)
		}
	}
	g.Reset()
	if again := Collect(g, 0); len(again) != 12 {
		t.Errorf("after Reset: %d", len(again))
	}
}

func TestFromLocalityValidation(t *testing.T) {
	hier := memhier.Default()
	ok := []LocalityPhase{{Profile: memhier.AccessProfile{AccessesPerUop: 0.3, WorkingSetBytes: 1 << 20}, Intervals: 1, CoreUPC: 1}}
	if _, err := FromLocality("x", nil, ok, 0, 10); err == nil {
		t.Error("nil hierarchy accepted")
	}
	if _, err := FromLocality("x", hier, nil, 0, 10); err == nil {
		t.Error("no sections accepted")
	}
	if _, err := FromLocality("x", hier, ok, 0, 0); err == nil {
		t.Error("zero total accepted")
	}
	bad := []LocalityPhase{{Profile: memhier.AccessProfile{AccessesPerUop: -1}, Intervals: 1, CoreUPC: 1}}
	if _, err := FromLocality("x", hier, bad, 0, 10); err == nil {
		t.Error("invalid profile accepted")
	}
	noCount := []LocalityPhase{{Profile: memhier.AccessProfile{AccessesPerUop: 0.3}, Intervals: 0, CoreUPC: 1}}
	if _, err := FromLocality("x", hier, noCount, 0, 10); err == nil {
		t.Error("zero-interval section accepted")
	}
	noUPC := []LocalityPhase{{Profile: memhier.AccessProfile{AccessesPerUop: 0.3}, Intervals: 1}}
	if _, err := FromLocality("x", hier, noUPC, 0, 10); err == nil {
		t.Error("zero core UPC accepted")
	}
}

// repeat returns a generator that emits w n times.
func repeat(name string, w cpusim.Work, n int) Generator {
	return &repeatGen{name: name, work: w, total: n}
}

type repeatGen struct {
	name    string
	work    cpusim.Work
	total   int
	emitted int
}

func (g *repeatGen) Name() string { return g.name }

func (g *repeatGen) Next() (cpusim.Work, bool) {
	if g.emitted >= g.total {
		return cpusim.Work{}, false
	}
	g.emitted++
	return g.work, true
}

func (g *repeatGen) Reset() { g.emitted = 0 }
