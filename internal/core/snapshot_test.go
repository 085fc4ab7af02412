package core

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasemon/internal/phase"
)

// snapshotSpecs is one representative spec per registered family plus
// the geometry variants the serving stack actually deploys. The
// registry-driven test below cross-checks this list against
// RegisteredPredictors so a newly registered family cannot dodge the
// round-trip contract.
var snapshotSpecs = []string{
	"lastvalue",
	"gpht",
	"gpht_8_1024",
	"gpht_4_16_hyst",
	"fixwindow_8",
	"fixwindow_128",
	"fixwindow_16_mean",
	"fixwindow_16_ema",
	"varwindow_128_0.005",
	"varwindow_32_0.030",
	"duration",
	"duration_0.5",
	"oracle",
	"runlength",
	"markov_1",
	"markov_2",
	"markov_4",
	"dtree_2",
	"dtree_4",
	"linreg_8",
	"linreg_64",
}

// snapshotStimulus drives a predictor through a phase stream with
// enough variety to populate windows, tables, and transition counts.
func snapshotStimulus(n int) []Observation {
	out := make([]Observation, n)
	for i := range out {
		mem := float64(i%11) * 0.005
		out[i] = Observation{
			Sample: phase.Sample{MemPerUop: mem, UPC: 1.1},
			Phase:  phase.Default().Classify(phase.Sample{MemPerUop: mem}),
		}
	}
	return out
}

// snapshotEnv returns the spec environment the round-trip tests build
// under: the default classifier, plus a recorded future so the oracle
// has real state to carry.
func snapshotEnv() SpecEnv {
	future := make([]phase.ID, 512)
	for i := range future {
		future[i] = phase.ID(1 + (i*i)%6)
	}
	return SpecEnv{Classifier: phase.Default(), Future: future}
}

// TestRegistrySnapshotRoundTrip is the registry's migratability
// contract: every registered predictor family round-trips through
// Snapshot → Restore and then continues bit-identically with the
// original. This is what "any registered predictor is migratable by
// construction" means operationally.
func TestRegistrySnapshotRoundTrip(t *testing.T) {
	env := snapshotEnv()
	covered := map[string]bool{}
	for _, specStr := range snapshotSpecs {
		spec, err := ParsePredictorSpec(specStr)
		if err != nil {
			t.Fatalf("spec %q: %v", specStr, err)
		}
		covered[spec.Kind] = true
	}
	for _, kind := range RegisteredPredictors() {
		if !covered[kind] {
			t.Errorf("registered predictor kind %q has no snapshot round-trip spec; add it to snapshotSpecs", kind)
		}
	}

	stimulus := snapshotStimulus(600)
	for _, spec := range snapshotSpecs {
		t.Run(spec, func(t *testing.T) {
			orig, err := NewPredictorFromSpec(spec, env)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range stimulus[:300] {
				orig.Observe(o)
			}

			snap := orig.Snapshot(nil)
			if got, want := len(snap), orig.SnapshotLen(); got != want {
				t.Fatalf("Snapshot appended %d bytes, SnapshotLen says %d", got, want)
			}
			// Snapshot must be a pure read: a second call is identical.
			if again := orig.Snapshot(nil); !bytes.Equal(snap, again) {
				t.Fatal("back-to-back Snapshot calls differ")
			}

			resumed, err := NewPredictorFromSpec(spec, env)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if !bytes.Equal(resumed.Snapshot(nil), snap) {
				t.Fatal("restored predictor's snapshot differs from the original's")
			}
			for i, o := range stimulus[300:] {
				a, b := orig.Observe(o), resumed.Observe(o)
				if a != b {
					t.Fatalf("step %d after restore diverged: original %v, resumed %v", i, a, b)
				}
			}
		})
	}
}

// TestGPHTSnapshotRoundTrip: a GPHT restored from a half-trained
// snapshot carries the hit/miss accounting and continues
// bit-identically with the original.
func TestGPHTSnapshotRoundTrip(t *testing.T) {
	tab := phase.Default()
	obs := obsFromPhases(tab, repeatPattern([]phase.ID{5, 2, 6, 2, 2, 5}, 600))

	// Train on the first half.
	trained := MustNewGPHT(DefaultGPHTConfig())
	for _, o := range obs[:300] {
		trained.Observe(o)
	}
	restored := MustNewGPHT(DefaultGPHTConfig())
	if err := restored.Restore(trained.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	if restored.Hits() != trained.Hits() || restored.Misses() != trained.Misses() {
		t.Errorf("statistics not restored")
	}

	// Both must behave identically on the second half.
	for i, o := range obs[300:] {
		a := trained.Observe(o)
		b := restored.Observe(o)
		if a != b {
			t.Fatalf("divergence at continuation step %d: %v vs %v", i, a, b)
		}
	}
}

// TestGPHTSnapshotSkipsWarmup: a predictor restored from a trained
// snapshot predicts a learned pattern immediately; a fresh one needs a
// full pattern pass.
func TestGPHTSnapshotSkipsWarmup(t *testing.T) {
	tab := phase.Default()
	pattern := []phase.ID{1, 4, 2, 6, 3, 5}
	obs := obsFromPhases(tab, repeatPattern(pattern, 600))
	trained := MustNewGPHT(DefaultGPHTConfig())
	for _, o := range obs {
		trained.Observe(o)
	}
	restored := MustNewGPHT(DefaultGPHTConfig())
	if err := restored.Restore(trained.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	// Continue the stream exactly where training stopped (the pattern
	// keeps cycling): the restored predictor is already in sync and
	// must predict near-perfectly, no warm-up pass needed.
	continuation := obsFromPhases(tab, repeatPattern(pattern, 60))
	mispredictions := func(p Predictor) int {
		wrong := 0
		pending := p.Observe(continuation[0])
		for _, o := range continuation[1:] {
			if pending != o.Phase {
				wrong++
			}
			pending = p.Observe(o)
		}
		return wrong
	}
	wrong := mispredictions(restored)
	if wrong > 2 {
		t.Errorf("restored predictor made %d mispredictions on a learned pattern", wrong)
	}
	// A fresh predictor on the same continuation mispredicts during
	// its warm-up, demonstrating what the snapshot saves.
	if freshWrong := mispredictions(MustNewGPHT(DefaultGPHTConfig())); freshWrong <= wrong {
		t.Errorf("fresh predictor (%d wrong) did not pay a warm-up cost vs restored (%d wrong)", freshWrong, wrong)
	}
}

// TestSnapshotRestoreRejectsCorruption: every family must reject
// truncation, a wrong family tag, and a version it does not speak —
// without panicking and without producing a half-restored predictor.
func TestSnapshotRestoreRejectsCorruption(t *testing.T) {
	env := snapshotEnv()
	stimulus := snapshotStimulus(200)
	for _, spec := range snapshotSpecs {
		t.Run(spec, func(t *testing.T) {
			p, err := NewPredictorFromSpec(spec, env)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range stimulus {
				p.Observe(o)
			}
			snap := p.Snapshot(nil)

			target, err := NewPredictorFromSpec(spec, env)
			if err != nil {
				t.Fatal(err)
			}
			for name, bad := range map[string][]byte{
				"empty":        {},
				"truncated":    snap[:len(snap)/2],
				"wrong-family": append([]byte{0x7F}, snap[1:]...),
				"bad-version":  append([]byte{snap[0], 99}, snap[2:]...),
				"trailing":     append(append([]byte{}, snap...), 0xAA),
			} {
				if err := target.Restore(bad); err == nil {
					t.Errorf("Restore(%s) accepted corrupt input", name)
				}
			}
			// The target still works after rejected restores.
			target.Reset()
			if err := target.Restore(p.Snapshot(nil)); err != nil {
				t.Fatalf("clean Restore after rejections: %v", err)
			}
		})
	}
}

// TestSnapshotGeometryMismatch: restoring state into a predictor of a
// different configuration must fail, not silently mis-fit tables.
func TestSnapshotGeometryMismatch(t *testing.T) {
	env := snapshotEnv()
	pairs := [][2]string{
		{"gpht_8_128", "gpht_8_64"},
		{"gpht_8_128", "gpht_4_128"},
		{"gpht_8_128", "gpht_8_128_hyst"},
		{"fixwindow_8", "fixwindow_16"},
		{"fixwindow_16", "fixwindow_16_mean"},
		{"varwindow_128_0.005", "varwindow_128_0.030"},
		{"duration_0.25", "duration_0.5"},
		{"markov_1", "markov_2"},
		{"dtree_2", "dtree_4"},
		{"linreg_8", "linreg_16"},
		{"markov_2", "dtree_4"},
		{"runlength", "lastvalue"},
	}
	for _, pair := range pairs {
		t.Run(pair[0]+"->"+pair[1], func(t *testing.T) {
			src, err := NewPredictorFromSpec(pair[0], env)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range snapshotStimulus(100) {
				src.Observe(o)
			}
			dst, err := NewPredictorFromSpec(pair[1], env)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Restore(src.Snapshot(nil)); err == nil {
				t.Errorf("restoring %q state into %q succeeded", pair[0], pair[1])
			}
		})
	}
}

// TestFixWindowSnapshotModeMismatch: each fixwindow mode keeps at most
// one window — majority the phase IDs, mean the Mem/Uop values, EMA
// neither — so Snapshot never writes a window its mode does not use.
// A snapshot that carries one anyway (here, a real snapshot with its
// mode byte rewritten to the receiver's) must be rejected, and the
// receiver left unchanged.
func TestFixWindowSnapshotModeMismatch(t *testing.T) {
	env := snapshotEnv()
	const modeByte = 2 // after [tag][ver]
	cases := []struct{ src, dst string }{
		{"fixwindow_16", "fixwindow_16_mean"},
		{"fixwindow_16", "fixwindow_16_ema"},
		{"fixwindow_16_mean", "fixwindow_16"},
		{"fixwindow_16_mean", "fixwindow_16_ema"},
	}
	for _, c := range cases {
		t.Run(c.src+"->"+c.dst, func(t *testing.T) {
			src, err := NewPredictorFromSpec(c.src, env)
			if err != nil {
				t.Fatal(err)
			}
			dst, err := NewPredictorFromSpec(c.dst, env)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range snapshotStimulus(100) {
				src.Observe(o)
				dst.Observe(o)
			}
			before := dst.Snapshot(nil)
			bad := src.Snapshot(nil)
			bad[modeByte] = before[modeByte]
			if err := dst.Restore(bad); !errors.Is(err, ErrSnapshot) {
				t.Fatalf("Restore of a %s window into %s: err = %v, want ErrSnapshot", c.src, c.dst, err)
			}
			if !bytes.Equal(dst.Snapshot(nil), before) {
				t.Error("rejected Restore changed the receiver")
			}
		})
	}
}

// windowGoldenStimulus is the seeded stream behind the window snapshot
// golden: sticky phase runs whose Mem/Uop jitters within and jumps
// between runs, so majority windows see ties and varwindows see both
// flushes and kept history.
func windowGoldenStimulus(n int) []Observation {
	rng := rand.New(rand.NewSource(14))
	cls := phase.Default()
	out := make([]Observation, 0, n)
	for len(out) < n {
		base := rng.Float64() * 0.04
		for run := 1 + rng.Intn(12); run > 0 && len(out) < n; run-- {
			mem := base + (rng.Float64()-0.5)*0.004
			out = append(out, Observation{
				Sample: phase.Sample{MemPerUop: mem, UPC: 1.1},
				Phase:  cls.Classify(phase.Sample{MemPerUop: mem}),
			})
		}
	}
	return out
}

// readWindowGolden parses testdata/window_snapshots.golden into
// spec -> snapshot bytes.
func readWindowGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "window_snapshots.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		spec, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden line %q is not \"spec hex\"", line)
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("golden %s: %v", spec, err)
		}
		golden[spec] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestWindowSnapshotGolden pins the version-1 window snapshot layout:
// for every fixwindow and varwindow spec in snapshotSpecs, the bytes
// after a seeded stream equal the committed golden, and the golden
// bytes restore into a fresh predictor that continues bit-identically
// with an uninterrupted run.
func TestWindowSnapshotGolden(t *testing.T) {
	golden := readWindowGolden(t)
	stim := windowGoldenStimulus(400)
	for _, spec := range snapshotSpecs {
		if !strings.HasPrefix(spec, "fixwindow") && !strings.HasPrefix(spec, "varwindow") {
			continue
		}
		t.Run(spec, func(t *testing.T) {
			want, ok := golden[spec]
			if !ok {
				t.Fatalf("no golden snapshot for %s", spec)
			}
			orig, err := NewPredictorFromSpec(spec, snapshotEnv())
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range stim[:300] {
				orig.Observe(o)
			}
			if got := orig.Snapshot(nil); !bytes.Equal(got, want) {
				t.Fatalf("snapshot drifted from golden:\n got %x\nwant %x", got, want)
			}
			resumed, err := NewPredictorFromSpec(spec, snapshotEnv())
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(want); err != nil {
				t.Fatalf("Restore golden: %v", err)
			}
			for i, o := range stim[300:] {
				if a, b := orig.Observe(o), resumed.Observe(o); a != b {
					t.Fatalf("step %d after restoring the golden diverged: uninterrupted %v, resumed %v", i, a, b)
				}
			}
		})
	}
}

// TestMonitorSnapshotRoundTrip: the full serving envelope — pipeline
// registers, tally, confusion matrix, predictor — survives a
// snapshot/restore and continues bit-identically, which is exactly the
// phased kill-and-resume path in miniature.
func TestMonitorSnapshotRoundTrip(t *testing.T) {
	cls := phase.Default()
	for _, spec := range []string{"gpht_8_128", "fixwindow_128", "lastvalue", "duration"} {
		t.Run(spec, func(t *testing.T) {
			mkMon := func() *Monitor {
				p, err := NewPredictorFromSpec(spec, SpecEnv{Classifier: cls})
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewMonitor(cls, p)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			orig := mkMon()
			stimulus := snapshotStimulus(500)
			for _, o := range stimulus[:250] {
				orig.Step(o.Sample)
			}

			wantLen, err := orig.SnapshotLen()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := orig.Snapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(snap) != wantLen {
				t.Fatalf("Snapshot appended %d bytes, SnapshotLen says %d", len(snap), wantLen)
			}

			resumed := mkMon()
			if err := resumed.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if resumed.Steps() != orig.Steps() || resumed.Tally() != orig.Tally() ||
				resumed.LastPrediction() != orig.LastPrediction() {
				t.Fatalf("restored monitor accounting differs: steps %d/%d tally %+v/%+v",
					resumed.Steps(), orig.Steps(), resumed.Tally(), orig.Tally())
			}
			for p := 0; p <= cls.NumPhases(); p++ {
				for q := 0; q <= cls.NumPhases(); q++ {
					if resumed.Confusion().Count(phase.ID(p), phase.ID(q)) != orig.Confusion().Count(phase.ID(p), phase.ID(q)) {
						t.Fatalf("confusion cell (%d,%d) differs after restore", p, q)
					}
				}
			}
			for i, o := range stimulus[250:] {
				a1, n1 := orig.Step(o.Sample)
				a2, n2 := resumed.Step(o.Sample)
				if a1 != a2 || n1 != n2 {
					t.Fatalf("step %d diverged after restore: (%v,%v) vs (%v,%v)", i, a1, n1, a2, n2)
				}
			}
			if orig.Tally() != resumed.Tally() {
				t.Fatalf("tallies diverged after continuation: %+v vs %+v", orig.Tally(), resumed.Tally())
			}
		})
	}
}

// TestMonitorSnapshotNotStateful: a monitor around a predictor outside
// the StatefulPredictor contract reports ErrNotStateful instead of
// emitting garbage.
func TestMonitorSnapshotNotStateful(t *testing.T) {
	mon, err := NewMonitor(phase.Default(), plainPredictor{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.SnapshotLen(); err == nil {
		t.Error("SnapshotLen accepted a non-stateful predictor")
	}
	if _, err := mon.Snapshot(nil); err == nil {
		t.Error("Snapshot accepted a non-stateful predictor")
	}
	if err := mon.Restore(nil); err == nil {
		t.Error("Restore accepted a non-stateful predictor")
	}
}

// plainPredictor implements only the legacy Predictor interface.
type plainPredictor struct{}

func (plainPredictor) Name() string                   { return "plain" }
func (plainPredictor) Observe(o Observation) phase.ID { return o.Phase }
func (plainPredictor) Reset()                         {}

// TestGPHTSnapshotZeroAlloc is the encode-path memory contract of the
// migration design (DESIGN.md §14): snapshotting a steady-state GPHT
// into a buffer of sufficient capacity performs zero heap allocations,
// so phased's drain path can snapshot every session without disturbing
// the allocator under load.
func TestGPHTSnapshotZeroAlloc(t *testing.T) {
	g := MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: 6})
	for i := 0; i < 4096; i++ {
		g.Observe(Observation{Phase: phase.ID(1 + (i+i/7)%6)})
	}
	buf := make([]byte, 0, g.SnapshotLen())
	allocs := testing.AllocsPerRun(1000, func() {
		buf = g.Snapshot(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("GPHT.Snapshot allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestMonitorSnapshotZeroAlloc extends the witness to the full
// monitor envelope phased actually serializes per session.
func TestMonitorSnapshotZeroAlloc(t *testing.T) {
	cls := phase.Default()
	g := MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: cls.NumPhases()})
	mon, err := NewMonitor(cls, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allocSamples(4096) {
		mon.Step(s)
	}
	n, err := mon.SnapshotLen()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, n)
	allocs := testing.AllocsPerRun(1000, func() {
		buf, _ = mon.Snapshot(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("Monitor.Snapshot allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkSnapshotRoundTrip measures the migration unit of work: one
// steady-state GPHT monitor snapshot encode plus one restore into a
// fresh monitor. The encode half is the allocs/op contract (0); the
// restore half is cold-path but bounds how fast a draining node's
// sessions can land on their new home.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	cls := phase.Default()
	g := MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: cls.NumPhases()})
	mon, err := NewMonitor(cls, g)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range allocSamples(4096) {
		mon.Step(s)
	}
	g2 := MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: cls.NumPhases()})
	dst, err := NewMonitor(cls, g2)
	if err != nil {
		b.Fatal(err)
	}
	n, err := mon.SnapshotLen()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = mon.Snapshot(buf[:0])
		if err := dst.Restore(buf); err != nil {
			b.Fatal(err)
		}
	}
}
