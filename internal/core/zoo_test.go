package core

import (
	"testing"

	"phasemon/internal/phase"
)

// zooSpecs is one deployable spec per zoo family; the alloc witnesses
// and the cross-family benchmark iterate it so a family cannot join
// the zoo without entering the hot-path contract.
var zooSpecs = []string{"runlength", "markov_2", "dtree_4", "linreg_16"}

// zooStimulus alternates two phase runs with a slow Mem/Uop ramp, so
// run-length, transition, tree, and regression state all train.
func zooStimulus(n int) []Observation {
	cls := phase.Default()
	out := make([]Observation, n)
	for i := range out {
		mem := float64(i%9) * 0.004
		if (i/32)%2 == 1 {
			mem = 0.030 + float64(i%5)*0.002
		}
		s := phase.Sample{MemPerUop: mem, UPC: 1.1}
		out[i] = Observation{Sample: s, Phase: cls.Classify(s)}
	}
	return out
}

// TestRunLengthRepeatsAndSwitches pins the family's defining behavior:
// inside a learned run it predicts "stay", at the learned boundary it
// predicts the remembered successor.
func TestRunLengthRepeatsAndSwitches(t *testing.T) {
	p, err := NewRunLength(6)
	if err != nil {
		t.Fatal(err)
	}
	// Teach it: 4 intervals of phase 2, then phase 5.
	for i := 0; i < 4; i++ {
		p.Observe(Observation{Phase: 2})
	}
	p.Observe(Observation{Phase: 5}) // completes the run of 2s (length 4)
	p.Observe(Observation{Phase: 2}) // back in a run of 2s
	// Run of 2s: predictions 1..3 intervals in should be "stay".
	for i := 0; i < 2; i++ {
		if got := p.Observe(Observation{Phase: 2}); got != 2 {
			t.Fatalf("mid-run prediction = %v, want stay at 2", got)
		}
	}
	// 4th interval of the run: the learned length is reached, so the
	// learned successor (5) is due.
	if got := p.Observe(Observation{Phase: 2}); got != 5 {
		t.Fatalf("end-of-run prediction = %v, want learned successor 5", got)
	}
}

// TestMarkovLearnsAlternation: an order-2 chain must lock onto a
// period-3 phase cycle that last-value always misses.
func TestMarkovLearnsAlternation(t *testing.T) {
	p, err := NewMarkov(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	cycle := []phase.ID{1, 3, 5}
	// Train over many periods.
	for i := 0; i < 60; i++ {
		p.Observe(Observation{Phase: cycle[i%3]})
	}
	// Now every prediction must be the next element of the cycle.
	for i := 60; i < 72; i++ {
		got := p.Observe(Observation{Phase: cycle[i%3]})
		want := cycle[(i+1)%3]
		if got != want {
			t.Fatalf("step %d: predicted %v, want %v", i, got, want)
		}
	}
}

// TestMarkovOrderBounds: the dense table forces an order bound.
func TestMarkovOrderBounds(t *testing.T) {
	for _, bad := range []int{0, markovMaxOrder + 1, -1} {
		if _, err := NewMarkov(bad, 6); err == nil {
			t.Errorf("NewMarkov(order=%d) accepted", bad)
		}
	}
	if _, err := NewMarkov(1, 16); err == nil {
		t.Error("NewMarkov(phases=16) accepted (tags pack 4 bits)")
	}
}

// TestDTreeLearnsPhasePattern: the tree must beat cold last-value on a
// stable alternation once its leaves have trained, and its structure
// must be a pure function of spec + classifier (two instances built
// the same way predict identically).
func TestDTreeLearnsPhasePattern(t *testing.T) {
	cls := phase.Default()
	a, err := NewDTree(4, cls)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDTree(4, cls)
	if err != nil {
		t.Fatal(err)
	}
	stim := zooStimulus(800)
	for i, o := range stim {
		pa, pb := a.Observe(o), b.Observe(o)
		if pa != pb {
			t.Fatalf("step %d: twin trees diverged (%v vs %v)", i, pa, pb)
		}
	}
	// Accuracy over a second pass of the same stream must beat chance.
	correct, total := 0, 0
	pred := a.Observe(stim[0])
	for _, o := range stim[1:] {
		if pred == o.Phase {
			correct++
		}
		total++
		pred = a.Observe(o)
	}
	if rate := float64(correct) / float64(total); rate < 0.5 {
		t.Errorf("trained dtree accuracy %.2f on a repeating stream, want >= 0.5", rate)
	}
}

// TestLinRegTracksRamp: on a monotone Mem/Uop ramp the regression must
// anticipate the phase boundary crossing — predicting the *next*
// phase at the interval where last-value still says "stay".
func TestLinRegTracksRamp(t *testing.T) {
	cls := phase.Default()
	p, err := NewLinReg(8, cls)
	if err != nil {
		t.Fatal(err)
	}
	anticipated := false
	for i := 0; i < 200; i++ {
		mem := float64(i) * 0.0004 // slow steady ramp through the table
		s := phase.Sample{MemPerUop: mem, UPC: 1.0}
		o := Observation{Sample: s, Phase: cls.Classify(s)}
		got := p.Observe(o)
		if got == o.Phase+1 && o.Phase.Valid(cls.NumPhases()) {
			anticipated = true
		}
		if got < o.Phase {
			t.Fatalf("step %d: rising ramp predicted backwards (%v after observing %v)", i, got, o.Phase)
		}
	}
	if !anticipated {
		t.Error("regression never anticipated a boundary crossing on a monotone ramp")
	}
}

// TestLinRegWindowBounds exercises the constructor's contract.
func TestLinRegWindowBounds(t *testing.T) {
	cls := phase.Default()
	for _, bad := range []int{0, 1, linRegMaxWindow + 1} {
		if _, err := NewLinReg(bad, cls); err == nil {
			t.Errorf("NewLinReg(window=%d) accepted", bad)
		}
	}
	if _, err := NewLinReg(8, nil); err == nil {
		t.Error("NewLinReg(nil classifier) accepted")
	}
}

// windowSpecs are the window predictors' Observe witnesses: majority
// at both paper sizes, the mean mode, and a varwindow that flushes.
var windowSpecs = []string{"fixwindow_8", "fixwindow_128", "fixwindow_16_mean", "varwindow_128_0.005"}

// TestZooObserveZeroAlloc is the hot-path memory contract for every
// zoo family and the window predictors: after warm-up, Observe
// performs zero heap allocations. This is the AllocsPerRun witness
// behind each family's //lint:hotpath annotation.
func TestZooObserveZeroAlloc(t *testing.T) {
	env := SpecEnv{Classifier: phase.Default()}
	stim := zooStimulus(1024)
	for _, spec := range append(windowSpecs, zooSpecs...) {
		t.Run(spec, func(t *testing.T) {
			p, err := NewPredictorFromSpec(spec, env)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range stim {
				p.Observe(o)
			}
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				p.Observe(stim[i%len(stim)])
				i++
			})
			if allocs != 0 {
				t.Errorf("%s.Observe steady state allocates %.1f allocs/op, want 0", spec, allocs)
			}
		})
	}
}

// TestZooSnapshotZeroAlloc extends the encode-path contract of
// DESIGN.md §14 to the zoo: snapshots into a pre-sized buffer must
// not allocate, so a draining server can serialize any family.
func TestZooSnapshotZeroAlloc(t *testing.T) {
	env := SpecEnv{Classifier: phase.Default()}
	stim := zooStimulus(512)
	for _, spec := range zooSpecs {
		t.Run(spec, func(t *testing.T) {
			p, err := NewPredictorFromSpec(spec, env)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range stim {
				p.Observe(o)
			}
			buf := make([]byte, 0, p.SnapshotLen())
			allocs := testing.AllocsPerRun(1000, func() {
				buf = p.Snapshot(buf[:0])
			})
			if allocs != 0 {
				t.Errorf("%s.Snapshot allocates %.1f allocs/op, want 0", spec, allocs)
			}
		})
	}
}

// BenchmarkPredictorObserve races one steady-state Observe across the
// full registered zoo plus the incumbent families, in the bench-json
// set: allocs/op is the CI gate (0 everywhere), ns/op ranks the
// per-interval cost each brain adds to the PMI path.
func BenchmarkPredictorObserve(b *testing.B) {
	specs := append([]string{"lastvalue", "gpht_8_128", "fixwindow_8", "fixwindow_128", "varwindow_128_0.005", "duration"}, zooSpecs...)
	env := SpecEnv{Classifier: phase.Default()}
	stim := zooStimulus(4096)
	for _, spec := range specs {
		b.Run(spec, func(b *testing.B) {
			p, err := NewPredictorFromSpec(spec, env)
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range stim {
				p.Observe(o)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Observe(stim[i%len(stim)])
			}
		})
	}
}
