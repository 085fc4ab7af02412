package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phasemon/internal/phase"
)

// obsFromPhases builds an observation stream where each phase's sample
// sits at the classifier's midpoint for that phase.
func obsFromPhases(tab *phase.Table, ids []phase.ID) []Observation {
	out := make([]Observation, len(ids))
	for i, id := range ids {
		out[i] = Observation{
			Sample: phase.Sample{MemPerUop: tab.Midpoint(id)},
			Phase:  id,
		}
	}
	return out
}

func accuracy(t *testing.T, p Predictor, obs []Observation) float64 {
	t.Helper()
	tally, err := Evaluate(p, obs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tally.Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func repeatPattern(pattern []phase.ID, n int) []phase.ID {
	out := make([]phase.ID, 0, n)
	for len(out) < n {
		out = append(out, pattern...)
	}
	return out[:n]
}

func TestLastValue(t *testing.T) {
	p := NewLastValue()
	if p.Name() != "LastValue" {
		t.Errorf("Name = %q", p.Name())
	}
	if got := p.Observe(Observation{Phase: 3}); got != 3 {
		t.Errorf("prediction = %v, want 3", got)
	}
	if got := p.Observe(Observation{Phase: 5}); got != 5 {
		t.Errorf("prediction = %v, want 5", got)
	}
	p.Reset()
	if got := p.Observe(Observation{Phase: 1}); got != 1 {
		t.Errorf("after reset: %v", got)
	}
}

func TestLastValueAccuracyEqualsAdjacentEquality(t *testing.T) {
	tab := phase.Default()
	seq := []phase.ID{1, 1, 2, 2, 2, 1, 3, 3}
	// Adjacent-equal pairs: (1,1),(2,2),(2,2),(3,3) = 4 of 7.
	got := accuracy(t, NewLastValue(), obsFromPhases(tab, seq))
	if math.Abs(got-4.0/7) > 1e-12 {
		t.Errorf("accuracy = %v, want 4/7", got)
	}
}

func TestFixedWindowValidation(t *testing.T) {
	tab := phase.Default()
	if _, err := NewFixedWindow(0, ModeMajority, tab); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewFixedWindow(8, ModeMean, nil); err == nil {
		t.Error("mean mode without classifier accepted")
	}
	if _, err := NewFixedWindow(8, ModeEMA, nil); err == nil {
		t.Error("ema mode without classifier accepted")
	}
	if _, err := NewFixedWindow(8, WindowMode(99), tab); err == nil {
		t.Error("unknown mode accepted")
	}
	p, err := NewFixedWindow(8, ModeMajority, nil)
	if err != nil {
		t.Fatalf("majority without classifier: %v", err)
	}
	if p.Name() != "FixWindow_8" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestFixedWindowMajority(t *testing.T) {
	p, err := NewFixedWindow(4, ModeMajority, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed := []phase.ID{2, 2, 2, 5}
	var got phase.ID
	for _, id := range feed {
		got = p.Observe(Observation{Phase: id})
	}
	if got != 2 {
		t.Errorf("majority of [2 2 2 5] = %v, want 2", got)
	}
	// Window slides: after four 5s the 2s are gone.
	for _, id := range []phase.ID{5, 5, 5} {
		got = p.Observe(Observation{Phase: id})
	}
	if got != 5 {
		t.Errorf("after sliding, majority = %v, want 5", got)
	}
}

func TestFixedWindowMajorityTieBreaksRecent(t *testing.T) {
	p, err := NewFixedWindow(4, ModeMajority, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got phase.ID
	for _, id := range []phase.ID{2, 2, 5, 5} {
		got = p.Observe(Observation{Phase: id})
	}
	if got != 5 {
		t.Errorf("tie broke to %v, want the more recent 5", got)
	}
}

func TestFixedWindowMean(t *testing.T) {
	tab := phase.Default()
	p, err := NewFixedWindow(2, ModeMean, tab)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(Observation{Sample: phase.Sample{MemPerUop: 0.002}, Phase: 1})
	// Mean of 0.002 and 0.012 is 0.007 -> phase 2.
	got := p.Observe(Observation{Sample: phase.Sample{MemPerUop: 0.012}, Phase: 3})
	if got != 2 {
		t.Errorf("mean-mode prediction = %v, want 2", got)
	}
}

func TestFixedWindowEMATracksSlowly(t *testing.T) {
	tab := phase.Default()
	p, err := NewFixedWindow(8, ModeEMA, tab)
	if err != nil {
		t.Fatal(err)
	}
	// Initialize at a phase-1 level, then a single phase-6 spike: the
	// EMA must not jump all the way.
	p.Observe(Observation{Sample: phase.Sample{MemPerUop: 0.002}, Phase: 1})
	got := p.Observe(Observation{Sample: phase.Sample{MemPerUop: 0.035}, Phase: 6})
	if got == 6 {
		t.Error("EMA jumped immediately to the spike phase")
	}
	// Sustained phase 6 eventually wins.
	for i := 0; i < 30; i++ {
		got = p.Observe(Observation{Sample: phase.Sample{MemPerUop: 0.035}, Phase: 6})
	}
	if got != 6 {
		t.Errorf("EMA never converged: %v", got)
	}
}

func TestVariableWindowFlushOnTransition(t *testing.T) {
	p, err := NewVariableWindow(128, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	// Long phase-1 history...
	for i := 0; i < 50; i++ {
		p.Observe(Observation{Sample: phase.Sample{MemPerUop: 0.002}, Phase: 1})
	}
	// ...then a jump beyond the threshold: the window is flushed, so
	// the prediction follows the new phase immediately instead of
	// being outvoted by stale history.
	got := p.Observe(Observation{Sample: phase.Sample{MemPerUop: 0.033}, Phase: 6})
	if got != 6 {
		t.Errorf("after transition, prediction = %v, want 6", got)
	}
	// A fixed window of the same size would still say 1 here.
	fw, err := NewFixedWindow(128, ModeMajority, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		fw.Observe(Observation{Phase: 1})
	}
	if got := fw.Observe(Observation{Phase: 6}); got != 1 {
		t.Errorf("fixed window sanity: %v, want 1", got)
	}
}

func TestVariableWindowSmallChangesKeepHistory(t *testing.T) {
	p, err := NewVariableWindow(128, 0.030)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Observe(Observation{Sample: phase.Sample{MemPerUop: 0.002}, Phase: 1})
	}
	// A change below the 0.030 threshold keeps the window, so the old
	// majority persists.
	got := p.Observe(Observation{Sample: phase.Sample{MemPerUop: 0.012}, Phase: 3})
	if got != 1 {
		t.Errorf("prediction = %v, want stale majority 1", got)
	}
}

func TestVariableWindowValidation(t *testing.T) {
	if _, err := NewVariableWindow(0, 0.005); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewVariableWindow(8, -1); err == nil {
		t.Error("negative threshold accepted")
	}
	p, _ := NewVariableWindow(128, 0.005)
	if p.Name() != "VarWindow_128_0.005" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestOracle(t *testing.T) {
	tab := phase.Default()
	seq := []phase.ID{1, 2, 3, 4, 5, 6, 1, 2}
	p := NewOracle(seq)
	if got := accuracy(t, p, obsFromPhases(tab, seq)); got != 1 {
		t.Errorf("oracle accuracy = %v, want 1", got)
	}
	// Exhausted oracle degrades to last value rather than panicking.
	p.Reset()
	for _, id := range seq {
		p.Observe(Observation{Phase: id})
	}
	if got := p.Observe(Observation{Phase: 4}); got != 4 {
		t.Errorf("exhausted oracle = %v, want last value 4", got)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if _, err := Evaluate(NewLastValue(), nil); err == nil {
		t.Error("expected ErrNoObservations")
	}
}

func TestEvaluateAll(t *testing.T) {
	tab := phase.Default()
	obs := obsFromPhases(tab, repeatPattern([]phase.ID{1, 2}, 100))
	preds, err := PaperPredictors(tab)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateAll(preds, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("EvaluateAll returned %d tallies", len(got))
	}
	for _, name := range []string{"LastValue", "FixWindow_8", "FixWindow_128", "VarWindow_128_0.005", "VarWindow_128_0.030", "GPHT_8_1024"} {
		if _, ok := got[name]; !ok {
			t.Errorf("missing predictor %q", name)
		}
	}
	// A strict 1-2 alternation: last value is always wrong, GPHT
	// nearly always right.
	lv, _ := got["LastValue"].Accuracy()
	g, _ := got["GPHT_8_1024"].Accuracy()
	if lv > 0.01 {
		t.Errorf("last value on alternation: %v, want ~0", lv)
	}
	if g < 0.9 {
		t.Errorf("GPHT on alternation: %v, want >0.9", g)
	}
}

func TestWindowModeString(t *testing.T) {
	if ModeMajority.String() != "majority" || ModeMean.String() != "mean" || ModeEMA.String() != "ema" {
		t.Error("mode names wrong")
	}
	if WindowMode(9).String() != "mode(9)" {
		t.Errorf("unknown mode: %q", WindowMode(9).String())
	}
}

func TestPredictorsResetToCleanState(t *testing.T) {
	tab := phase.Default()
	preds, err := PaperPredictors(tab)
	if err != nil {
		t.Fatal(err)
	}
	obs := obsFromPhases(tab, repeatPattern([]phase.ID{1, 4, 2, 6, 3}, 200))
	for _, p := range preds {
		first := accuracy(t, p, obs)
		second := accuracy(t, p, obs) // Evaluate resets internally
		if first != second {
			t.Errorf("%s: accuracy changed across evaluations: %v vs %v", p.Name(), first, second)
		}
	}
}

func TestStatisticalPredictorsOnRandomSequences(t *testing.T) {
	// On structure-free input no predictor can beat chance by much,
	// and the GPHT must not do materially worse than last value
	// (its miss path *is* last value).
	tab := phase.Default()
	rng := rand.New(rand.NewSource(99))
	ids := make([]phase.ID, 3000)
	for i := range ids {
		ids[i] = phase.ID(1 + rng.Intn(6))
	}
	obs := obsFromPhases(tab, ids)
	lv := accuracy(t, NewLastValue(), obs)
	g := accuracy(t, MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 1024, NumPhases: 6}), obs)
	if math.Abs(lv-1.0/6) > 0.05 {
		t.Errorf("last value on uniform noise: %v, want ~1/6", lv)
	}
	if g < lv-0.05 {
		t.Errorf("GPHT (%v) materially worse than last value (%v) on noise", g, lv)
	}
}

// majority is the window vote as a full rescan: the most frequent
// phase in w, ties broken toward the phase whose latest occurrence is
// most recent, fallback for an empty window. It is the reference the
// incremental windowTally is checked against.
func majority(w []phase.ID, fallback phase.ID) phase.ID {
	if len(w) == 0 {
		return fallback
	}
	counts := map[phase.ID]int{}
	lastSeen := map[phase.ID]int{}
	for i, p := range w {
		counts[p]++
		lastSeen[p] = i
	}
	best := w[len(w)-1]
	for p, c := range counts {
		switch {
		case c > counts[best]:
			best = p
		case c == counts[best] && lastSeen[p] > lastSeen[best]:
			best = p
		}
	}
	return best
}

// rescanWindow is a window predictor voted by majority: a variable
// window with the given flush threshold, or a fixed window when the
// threshold is +Inf.
type rescanWindow struct {
	size      int
	threshold float64
	w         []phase.ID
	lastMem   float64
	havePrev  bool
	last      phase.ID
}

func (r *rescanWindow) observe(o Observation) phase.ID {
	if r.havePrev && math.Abs(o.Sample.MemPerUop-r.lastMem) > r.threshold {
		r.w = r.w[:0]
	}
	r.lastMem = o.Sample.MemPerUop
	r.havePrev = true
	r.last = o.Phase
	r.w = append(r.w, o.Phase)
	if len(r.w) > r.size {
		r.w = r.w[1:]
	}
	return majority(r.w, r.last)
}

func (r *rescanWindow) reset() {
	r.w = r.w[:0]
	r.lastMem = 0
	r.havePrev = false
	r.last = phase.None
}

// restored applies a snapshot round trip's one lossy step: phase IDs
// travel as single bytes.
func (r *rescanWindow) restored() {
	for i, id := range r.w {
		r.w[i] = phase.ID(byte(id))
	}
	r.last = phase.ID(byte(r.last))
}

type windowOpKind int

const (
	opObserve windowOpKind = iota
	opReset
	opRestore // snapshot, then continue on a fresh predictor restored from it
)

type windowOp struct {
	kind windowOpKind
	obs  Observation
}

// checkWindowsAgainstRescan runs ops through a majority fixwindow and a
// varwindow of the given size and threshold, requiring every Observe
// to equal the rescan reference's prediction.
func checkWindowsAgainstRescan(t *testing.T, size int, threshold float64, ops []windowOp) {
	t.Helper()
	builds := []struct {
		ref *rescanWindow
		new func() (StatefulPredictor, error)
	}{
		{&rescanWindow{size: size, threshold: math.Inf(1)},
			func() (StatefulPredictor, error) { return NewFixedWindow(size, ModeMajority, nil) }},
		{&rescanWindow{size: size, threshold: threshold},
			func() (StatefulPredictor, error) { return NewVariableWindow(size, threshold) }},
	}
	for _, b := range builds {
		p, err := b.new()
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			switch op.kind {
			case opReset:
				p.Reset()
				b.ref.reset()
			case opRestore:
				fresh, err := b.new()
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Restore(p.Snapshot(nil)); err != nil {
					t.Fatalf("%s op %d: Restore: %v", p.Name(), i, err)
				}
				p = fresh
				b.ref.restored()
			default:
				if got, want := p.Observe(op.obs), b.ref.observe(op.obs); got != want {
					t.Fatalf("%s op %d: Observe(%v) = %v, rescan says %v over window %v",
						p.Name(), i, op.obs.Phase, got, want, b.ref.w)
				}
			}
		}
	}
}

// TestWindowTallyMatchesRescan: on seeded streams over several ID
// ranges, with Reset and snapshot/restore interleaved, every fixwindow
// and varwindow prediction equals the full-rescan majority.
func TestWindowTallyMatchesRescan(t *testing.T) {
	idRanges := []struct {
		name string
		id   func(rng *rand.Rand) phase.ID
	}{
		{"paper", func(rng *rand.Rand) phase.ID { return phase.ID(1 + rng.Intn(6)) }},
		{"with-none", func(rng *rand.Rand) phase.ID { return phase.ID(rng.Intn(3)) }},
		{"signed", func(rng *rand.Rand) phase.ID { return phase.ID(rng.Intn(40) - 20) }},
		{"wide", func(rng *rand.Rand) phase.ID { return phase.ID(rng.Intn(600) - 100) }},
		{"byte-aliases", func(rng *rand.Rand) phase.ID { return phase.ID(rng.Intn(4) * 256) }},
	}
	sizes := []int{1, 2, 3, 8, 17, 128, 200}
	thresholds := []float64{0, 0.005, 0.030}
	seed := int64(0)
	for _, r := range idRanges {
		for k, size := range sizes {
			seed++
			threshold := thresholds[k%len(thresholds)]
			rng := rand.New(rand.NewSource(seed))
			ops := make([]windowOp, 3000)
			var id phase.ID
			for i := range ops {
				switch n := rng.Intn(1000); {
				case n < 2:
					ops[i].kind = opReset
				case n < 7:
					ops[i].kind = opRestore
				default:
					// Sticky runs, so windows hold ties and clear
					// majorities alike.
					if i == 0 || rng.Intn(3) == 0 {
						id = r.id(rng)
					}
					ops[i].obs = Observation{
						Sample: phase.Sample{MemPerUop: float64(rng.Intn(8)) * 0.002},
						Phase:  id,
					}
				}
			}
			t.Run(fmt.Sprintf("%s/size%d", r.name, size), func(t *testing.T) {
				checkWindowsAgainstRescan(t, size, threshold, ops)
			})
		}
	}
}
