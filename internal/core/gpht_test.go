package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"phasemon/internal/phase"
)

func TestGPHTConfigValidation(t *testing.T) {
	bad := []GPHTConfig{
		{GPHRDepth: 0, PHTEntries: 128, NumPhases: 6},
		{GPHRDepth: 17, PHTEntries: 128, NumPhases: 6},
		{GPHRDepth: 8, PHTEntries: 0, NumPhases: 6},
		{GPHRDepth: 8, PHTEntries: 128, NumPhases: 0},
		{GPHRDepth: 8, PHTEntries: 128, NumPhases: 16},
	}
	for i, cfg := range bad {
		if _, err := NewGPHT(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
	g, err := NewGPHT(DefaultGPHTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "GPHT_8_128" {
		t.Errorf("Name = %q", g.Name())
	}
	if g.TableEntries() != 128 {
		t.Errorf("TableEntries = %d", g.TableEntries())
	}
	if g.cfg != DefaultGPHTConfig() {
		t.Errorf("Config = %+v", g.cfg)
	}
}

func TestMustNewGPHTPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewGPHT(GPHTConfig{})
}

func TestGPHTLearnsPeriodicPatternPerfectly(t *testing.T) {
	// The defining property: any strictly periodic phase sequence
	// whose distinct contexts fit in the PHT is predicted perfectly
	// once every context has been seen and trained.
	tab := phase.Default()
	patterns := [][]phase.ID{
		{1, 2},
		{5, 2, 5, 2, 6, 2},
		{1, 1, 2, 3, 3, 2, 1, 6, 6, 4},
		{2, 5, 2, 5, 5, 6, 2, 2, 5, 6, 6, 2},
	}
	for _, pat := range patterns {
		g := MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: 6})
		seq := repeatPattern(pat, len(pat)*20)
		obs := obsFromPhases(tab, seq)
		// Warm up on the first half...
		warm := obs[:len(obs)/2]
		rest := obs[len(obs)/2:]
		pending := phase.None
		for _, o := range warm {
			pending = g.Observe(o)
		}
		// ...then demand perfection on the second half.
		wrong := 0
		for _, o := range rest {
			if pending != o.Phase {
				wrong++
			}
			pending = g.Observe(o)
		}
		if wrong != 0 {
			t.Errorf("pattern %v: %d mispredictions after warm-up", pat, wrong)
		}
	}
}

func TestGPHTBeatsLastValueOnAlternation(t *testing.T) {
	// Paper Section 3: for highly variable (but repetitive) behavior
	// the GPHT reduces mispredictions by multiples.
	tab := phase.Default()
	pat := []phase.ID{5, 2, 5, 2, 6, 2, 2, 5}
	obs := obsFromPhases(tab, repeatPattern(pat, 2000))
	lv := accuracy(t, NewLastValue(), obs)
	g := accuracy(t, MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: 6}), obs)
	if lv > 0.35 {
		t.Errorf("last value accuracy %v unexpectedly high", lv)
	}
	if g < 0.95 {
		t.Errorf("GPHT accuracy %v, want > 0.95", g)
	}
}

func TestGPHTSinglePHTEntryDegradesTowardLastValue(t *testing.T) {
	// Paper Figure 5: with one PHT entry nearly every lookup misses,
	// so the prediction is continuously GPHR[0] — last value.
	tab := phase.Default()
	rng := rand.New(rand.NewSource(4))
	ids := make([]phase.ID, 2000)
	cur := phase.ID(1)
	for i := range ids {
		if rng.Float64() < 0.3 {
			cur = phase.ID(1 + rng.Intn(6))
		}
		ids[i] = cur
	}
	obs := obsFromPhases(tab, ids)
	lv := accuracy(t, NewLastValue(), obs)
	g1 := accuracy(t, MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 1, NumPhases: 6}), obs)
	if diff := g1 - lv; diff > 0.03 || diff < -0.03 {
		t.Errorf("GPHT(1 entry) accuracy %v differs from last value %v by %v", g1, lv, diff)
	}
}

func TestGPHTPHTSizeSweepMonotonicOnComplexPattern(t *testing.T) {
	// A pattern with ~96 distinct contexts: 128 and 1024 entries hold
	// it, 64 thrashes, 1 collapses to last value (Figure 5's shape).
	tab := phase.Default()
	rng := rand.New(rand.NewSource(5))
	pat := make([]phase.ID, 96)
	for i := range pat {
		pat[i] = phase.ID(1 + rng.Intn(6))
	}
	obs := obsFromPhases(tab, repeatPattern(pat, 5000))
	acc := map[int]float64{}
	for _, entries := range []int{1024, 128, 64, 1} {
		acc[entries] = accuracy(t, MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: entries, NumPhases: 6}), obs)
	}
	if acc[1024] < 0.97 || acc[128] < 0.97 {
		t.Errorf("large PHTs should capture the pattern: 1024=%v 128=%v", acc[1024], acc[128])
	}
	if !(acc[64] < acc[128]-0.1) {
		t.Errorf("64-entry PHT should degrade observably: 64=%v 128=%v", acc[64], acc[128])
	}
	// On a strictly cyclic pattern larger than the table, LRU thrashes
	// completely, so 64 entries can only tie (not beat) the 1-entry
	// last-value floor.
	if acc[1] > acc[64]+1e-9 {
		t.Errorf("1-entry PHT should not beat 64: 1=%v 64=%v", acc[1], acc[64])
	}
}

func TestGPHTLRUEviction(t *testing.T) {
	// With a tiny PHT, older patterns are evicted least-recently-used
	// first, and utilization never exceeds capacity.
	g := MustNewGPHT(GPHTConfig{GPHRDepth: 2, PHTEntries: 4, NumPhases: 6})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		g.Observe(Observation{Phase: phase.ID(1 + rng.Intn(6))})
		if u := g.Utilization(); u > 1 {
			t.Fatalf("utilization %v exceeds 1", u)
		}
	}
	if g.Utilization() != 1 {
		t.Errorf("PHT should be full after 1000 random observations, utilization %v", g.Utilization())
	}
	if g.hits+g.misses != 1000 {
		t.Errorf("hits %d + misses %d != 1000", g.hits, g.misses)
	}
}

func TestGPHTTrainsConsultedEntry(t *testing.T) {
	// Feed the exact scenario of the paper's Figure 1: a recurring
	// context must predict the phase that followed it last time.
	g := MustNewGPHT(GPHTConfig{GPHRDepth: 2, PHTEntries: 16, NumPhases: 6})
	// Build history ... 1,2 -> 5; then later context (1,2) recurs.
	g.Observe(Observation{Phase: 1})
	g.Observe(Observation{Phase: 2}) // context [2,1] installed
	g.Observe(Observation{Phase: 5}) // trains [2,1] -> 5
	g.Observe(Observation{Phase: 1})
	g.Observe(Observation{Phase: 1})
	got := g.Observe(Observation{Phase: 2}) // context [2,1] recurs
	if got != 5 {
		t.Errorf("recurring context predicted %v, want trained 5", got)
	}
}

func TestGPHTClampsInvalidPhases(t *testing.T) {
	g := MustNewGPHT(GPHTConfig{GPHRDepth: 4, PHTEntries: 8, NumPhases: 6})
	for _, id := range []phase.ID{-5, 0, 99} {
		got := g.Observe(Observation{Phase: id})
		if !got.Valid(6) {
			t.Errorf("Observe(%v) predicted invalid %v", id, got)
		}
	}
}

func TestGPHTReset(t *testing.T) {
	g := MustNewGPHT(DefaultGPHTConfig())
	for i := 0; i < 100; i++ {
		g.Observe(Observation{Phase: phase.ID(1 + i%6)})
	}
	g.Reset()
	if g.hits != 0 || g.misses != 0 || g.Utilization() != 0 {
		t.Error("Reset incomplete")
	}
	// Behaves identically to a fresh predictor.
	tab := phase.Default()
	obs := obsFromPhases(tab, repeatPattern([]phase.ID{3, 1, 4}, 300))
	a := accuracy(t, g, obs)
	b := accuracy(t, MustNewGPHT(DefaultGPHTConfig()), obs)
	if a != b {
		t.Errorf("reset predictor accuracy %v != fresh %v", a, b)
	}
}

func TestGPHTHysteresisSurvivesOneDisturbance(t *testing.T) {
	// With hysteresis, a single anomalous outcome does not overwrite a
	// confident prediction; with direct update it does.
	run := func(hyst bool) int {
		g := MustNewGPHT(GPHTConfig{GPHRDepth: 4, PHTEntries: 256, NumPhases: 6, Hysteresis: hyst})
		tab := phase.Default()
		pat := []phase.ID{1, 2, 3, 4, 5, 6}
		seq := repeatPattern(pat, 600)
		// One disturbance mid-stream.
		seq[300] = 1
		obs := obsFromPhases(tab, seq)
		tally, err := Evaluate(g, obs)
		if err != nil {
			t.Fatal(err)
		}
		return tally.Total() - tally.Correct()
	}
	direct := run(false)
	hyst := run(true)
	if hyst > direct {
		t.Errorf("hysteresis (%d mispredictions) should not be worse than direct (%d) here", hyst, direct)
	}
}

func TestGPHTPredictionsAlwaysValidProperty(t *testing.T) {
	f := func(raw []byte) bool {
		g := MustNewGPHT(GPHTConfig{GPHRDepth: 3, PHTEntries: 8, NumPhases: 6})
		for _, b := range raw {
			id := phase.ID(int(b%8) - 1) // includes invalid -1, 0, 7
			got := g.Observe(Observation{Phase: id})
			if !got.Valid(6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGPHTDepthOneIsLastPhaseContext(t *testing.T) {
	// Depth 1 indexes on just the last phase: it learns first-order
	// transitions (a Markov-1 predictor).
	g := MustNewGPHT(GPHTConfig{GPHRDepth: 1, PHTEntries: 16, NumPhases: 6})
	tab := phase.Default()
	obs := obsFromPhases(tab, repeatPattern([]phase.ID{1, 4}, 200))
	if a := accuracy(t, g, obs); a < 0.95 {
		t.Errorf("depth-1 GPHT on strict alternation: %v", a)
	}
}

// victimScan is the full-table scan the GPHT's recency list
// replaced — the first invalid slot by index, else the valid entry
// with the smallest age — kept as the reference they are checked
// against.
func victimScan(g *GPHT) int {
	best := 0
	bestAge := ^uint64(0)
	for i := range g.pht {
		if !g.pht[i].valid {
			return i
		}
		if g.pht[i].age < bestAge {
			bestAge = g.pht[i].age
			best = i
		}
	}
	return best
}

// checkGPHTRecency verifies the recency structures against the
// table: the recency list links every valid entry exactly once, in
// strictly increasing age, with consistent back links around its
// sentinel, and the free list links every invalid slot exactly once in
// ascending order.
func checkGPHTRecency(t *testing.T, g *GPHT) {
	t.Helper()
	sentinel := int32(len(g.pht))
	valid, free := 0, 0
	prev := sentinel
	var lastAge uint64
	for i := g.links[sentinel].next; i != sentinel; i = g.links[i].next {
		if i < 0 || i > sentinel || !g.pht[i].valid {
			t.Fatalf("recency list reaches slot %d", i)
		}
		if g.links[i].prev != prev {
			t.Fatalf("slot %d back link %d, want %d", i, g.links[i].prev, prev)
		}
		if age := g.pht[i].age; valid > 0 && age <= lastAge {
			t.Fatalf("recency list not in age order at slot %d: age %d after %d", i, age, lastAge)
		}
		lastAge, prev = g.pht[i].age, i
		if valid++; valid > len(g.pht) {
			t.Fatal("recency list cycles")
		}
	}
	if g.links[sentinel].prev != prev {
		t.Fatalf("sentinel back link %d, want the list tail %d", g.links[sentinel].prev, prev)
	}
	last := int32(-1)
	for i := g.free; i >= 0; i = g.links[i].next {
		if g.pht[i].valid {
			t.Fatalf("free list holds valid slot %d", i)
		}
		if i <= last {
			t.Fatalf("free list not ascending: %d after %d", i, last)
		}
		last = i
		free++
	}
	if valid+free != len(g.pht) {
		t.Fatalf("lists cover %d valid + %d free slots of %d", valid, free, len(g.pht))
	}
	if u := float64(valid) / float64(len(g.pht)); u != g.Utilization() {
		t.Fatalf("recency list holds %d entries, utilization %v", valid, g.Utilization())
	}
}

// randomGPHTTable fills g's table with random holes, distinct tags and
// distinct ages drawn from [1, clock], the state Snapshot can encode
// and Restore must rebuild the recency list from.
func randomGPHTTable(rng *rand.Rand, g *GPHT) {
	clock := uint64(len(g.pht) + rng.Intn(1000))
	ages := rng.Perm(int(clock))
	tags := map[uint64]bool{}
	space := 1 << (4 * g.cfg.GPHRDepth)
	for i := range g.pht {
		if rng.Intn(3) == 0 || len(tags) == space {
			g.pht[i] = phtEntry{}
			continue
		}
		tag := uint64(rng.Intn(space))
		for tags[tag] {
			tag = uint64(rng.Intn(space))
		}
		tags[tag] = true
		g.pht[i] = phtEntry{tag: tag, pred: uint8(rng.Intn(g.cfg.NumPhases + 1)),
			age: uint64(ages[i]) + 1, valid: true, conf: rng.Intn(2) == 0}
	}
	g.clock = clock
}

// TestGPHTVictimMatchesScan drives the recency list differentially
// against the full-table scan it replaced, over random streams from
// a fresh table and from random restored tables with holes: after
// every observation the victim must be the slot the scan picks, and
// the recency structures must stay intact.
func TestGPHTVictimMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		cfg := GPHTConfig{GPHRDepth: 1 + rng.Intn(4), PHTEntries: 1 + rng.Intn(64),
			NumPhases: 2 + rng.Intn(5), Hysteresis: rng.Intn(2) == 0}
		g := MustNewGPHT(cfg)
		if trial%2 == 1 {
			src := MustNewGPHT(cfg)
			randomGPHTTable(rng, src)
			if err := g.Restore(src.Snapshot(nil)); err != nil {
				t.Fatalf("trial %d: restoring a random table: %v", trial, err)
			}
		}
		checkGPHTRecency(t, g)
		for i := 0; i < 300; i++ {
			if got, want := g.victim(), victimScan(g); got != want {
				t.Fatalf("trial %d step %d (%+v): victim %d, scan picks %d", trial, i, cfg, got, want)
			}
			g.Observe(Observation{Phase: phase.ID(1 + rng.Intn(cfg.NumPhases))})
			checkGPHTRecency(t, g)
		}
		g.Reset()
		checkGPHTRecency(t, g)
		if g.victim() != 0 {
			t.Fatalf("trial %d: victim after Reset = %d, want slot 0", trial, g.victim())
		}
	}
}

// TestGPHTRestoreRejectsBadAges: the recency list is rebuilt from
// the snapshot's ages, so valid rows whose ages are not distinct and
// within [1, clock] — which no Snapshot produces — must fail Restore
// loudly and leave the predictor Reset.
func TestGPHTRestoreRejectsBadAges(t *testing.T) {
	cfg := GPHTConfig{GPHRDepth: 2, PHTEntries: 4, NumPhases: 6}
	for _, tc := range []struct {
		name  string
		ages  []uint64
		clock uint64
	}{
		{"duplicate", []uint64{3, 1, 3, 2}, 5},
		{"zero", []uint64{0, 1, 2, 3}, 5},
		{"past clock", []uint64{1, 2, 3, 9}, 5},
	} {
		src := MustNewGPHT(cfg)
		for i, age := range tc.ages {
			src.pht[i] = phtEntry{tag: uint64(i + 1), age: age, valid: true}
		}
		src.clock = tc.clock
		g := MustNewGPHT(cfg)
		g.Observe(Observation{Phase: 2})
		if err := g.Restore(src.Snapshot(nil)); err == nil {
			t.Errorf("%s: Restore accepted ages %v with clock %d", tc.name, tc.ages, tc.clock)
		}
		if g.hits+g.misses != 0 || g.Utilization() != 0 {
			t.Errorf("%s: a rejected Restore left state behind", tc.name)
		}
		checkGPHTRecency(t, g)
	}
}
