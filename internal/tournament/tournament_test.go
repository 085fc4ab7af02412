package tournament

import (
	"bytes"
	"context"
	"testing"

	"phasemon/internal/telemetry"
)

// testGrid is small enough for -race CI but still crosses three
// workloads with mixed phase behavior against a mixed-family field.
func testGrid(intervals int) Grid {
	return Grid{
		Workloads: []string{"applu_in", "gzip_graphic", "swim_in"},
		Specs:     []string{"lastvalue", "gpht_4_64", "runlength", "markov_2", "dtree_4", "linreg_16"},
		Intervals: intervals,
	}
}

func runTournament(t testing.TB, cfg Config) *Leaderboard {
	lb, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lb
}

func TestTournamentProducesRankedLeaderboard(t *testing.T) {
	lb := runTournament(t, Config{Grid: testGrid(96), Workers: 2})
	if lb.SchemaVersion != SchemaVersion {
		t.Errorf("schema version %d, want %d", lb.SchemaVersion, SchemaVersion)
	}
	if len(lb.Rounds) != 1 {
		t.Fatalf("%d rounds, want 1", len(lb.Rounds))
	}
	r := lb.Rounds[0]
	if want := 3 * 6; len(r.Cells) != want {
		t.Fatalf("%d cells, want %d", len(r.Cells), want)
	}
	if len(lb.Overall) != 6 {
		t.Fatalf("overall has %d standings, want 6", len(lb.Overall))
	}
	for i, st := range lb.Overall {
		if st.Rank != i+1 {
			t.Errorf("standing %d has rank %d", i, st.Rank)
		}
		if i > 0 && st.Score > lb.Overall[i-1].Score {
			t.Errorf("standings not score-descending at %d", i)
		}
		if st.Cells != 3 {
			t.Errorf("spec %s scored in %d cells, want 3", st.Spec, st.Cells)
		}
	}
	if lb.Winner != lb.Overall[0].Spec {
		t.Errorf("winner %q != top standing %q", lb.Winner, lb.Overall[0].Spec)
	}
	if len(lb.PerWorkload) != 3 {
		t.Fatalf("%d per-workload boards, want 3", len(lb.PerWorkload))
	}
	for _, b := range lb.PerWorkload {
		if len(b.Standings) != 6 {
			t.Errorf("board %s has %d standings, want 6", b.Workload, len(b.Standings))
		}
	}
}

func TestTournamentCellScoresAreCoherent(t *testing.T) {
	lb := runTournament(t, Config{Grid: testGrid(96), Workers: 2})
	for _, cs := range lb.Rounds[0].Cells {
		if cs.Accuracy < 0 || cs.Accuracy > 1 {
			t.Errorf("cell (%s,%s): accuracy %v outside [0,1]", cs.Workload, cs.Spec, cs.Accuracy)
		}
		if cs.CPIError < 0 {
			t.Errorf("cell (%s,%s): negative CPI error %v", cs.Workload, cs.Spec, cs.CPIError)
		}
		if len(cs.Mispredicts) != 6 {
			t.Fatalf("cell (%s,%s): %d class tallies, want 6", cs.Workload, cs.Spec, len(cs.Mispredicts))
		}
		var intervals, misses int
		for _, ct := range cs.Mispredicts {
			if ct.Transition+ct.Steady != ct.Total {
				t.Errorf("cell (%s,%s) class %s: transition %d + steady %d != total %d",
					cs.Workload, cs.Spec, ct.Class, ct.Transition, ct.Steady, ct.Total)
			}
			if ct.Total > ct.Intervals {
				t.Errorf("cell (%s,%s) class %s: more misses than intervals", cs.Workload, cs.Spec, ct.Class)
			}
			intervals += ct.Intervals
			misses += ct.Total
		}
		// The first interval is not scored (nothing predicted it), so
		// the class tallies cover Intervals−1 scored intervals and must
		// agree with the accuracy tally over the same set.
		if scored := cs.Intervals - 1; intervals != scored {
			t.Errorf("cell (%s,%s): class intervals sum %d, want %d", cs.Workload, cs.Spec, intervals, scored)
		}
		scored := float64(cs.Intervals - 1)
		if want := cs.Intervals - 1 - int(cs.Accuracy*scored+0.5); misses != want {
			t.Errorf("cell (%s,%s): %d class misses, accuracy implies %d", cs.Workload, cs.Spec, misses, want)
		}
	}
}

func TestTournamentElimination(t *testing.T) {
	hub := telemetry.NewHub(6)
	lb := runTournament(t, Config{Grid: testGrid(48), Rounds: 2, TopK: 3, Workers: 4, Telemetry: hub})
	if len(lb.Rounds) != 2 {
		t.Fatalf("%d rounds, want 2", len(lb.Rounds))
	}
	r1, r2 := lb.Rounds[0], lb.Rounds[1]
	if len(r1.Eliminated) != 3 {
		t.Fatalf("round 1 eliminated %v, want 3 specs", r1.Eliminated)
	}
	if r2.Intervals != 2*r1.Intervals {
		t.Errorf("round 2 ran %d intervals, want doubled %d", r2.Intervals, 2*r1.Intervals)
	}
	if want := 3 * 3; len(r2.Cells) != want {
		t.Errorf("round 2 has %d cells, want %d (survivors only)", len(r2.Cells), want)
	}
	// Survivors are exactly round 1's top 3.
	survived := map[string]bool{}
	for _, st := range r2.Standings {
		survived[st.Spec] = true
	}
	for _, st := range r1.Standings[:3] {
		if !survived[st.Spec] {
			t.Errorf("round-1 top spec %q missing from round 2", st.Spec)
		}
	}
	if len(lb.Overall) != 3 {
		t.Errorf("overall has %d standings, want the 3 finalists", len(lb.Overall))
	}
	if got := hub.TournamentRounds.Value(); got != 2 {
		t.Errorf("rounds counter = %d, want 2", got)
	}
	if got := hub.TournamentEliminated.Value(); got != 3 {
		t.Errorf("eliminated counter = %d, want 3", got)
	}
	if got := hub.TournamentCells.Value(); got != 18+9 {
		t.Errorf("cells counter = %d, want 27", got)
	}
}

// TestTournamentWorkerCountInvariance is the package's headline
// contract: the encoded leaderboard is byte-identical at any worker
// count. CI re-pins the same property end to end through phasearena.
func TestTournamentWorkerCountInvariance(t *testing.T) {
	var artifacts [][]byte
	for _, workers := range []int{1, 3, 8} {
		lb := runTournament(t, Config{Grid: testGrid(48), Rounds: 2, TopK: 3, Workers: workers})
		var buf bytes.Buffer
		if err := lb.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, buf.Bytes())
	}
	for i := 1; i < len(artifacts); i++ {
		if !bytes.Equal(artifacts[0], artifacts[i]) {
			t.Fatalf("leaderboard bytes differ between workers=1 and workers=%d", []int{1, 3, 8}[i])
		}
	}
}

func TestLeaderboardEncodeDecodeRoundTrip(t *testing.T) {
	lb := runTournament(t, Config{Grid: Grid{
		Workloads: []string{"applu_in"},
		Specs:     []string{"lastvalue", "markov_2"},
		Intervals: 32,
	}})
	var buf bytes.Buffer
	if err := lb.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLeaderboard(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := got.Encode(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), re.Bytes()) {
		t.Error("encode→decode→encode is not a fixed point")
	}
}

func TestDecodeLeaderboardRejectsUnknownSchema(t *testing.T) {
	if _, err := DecodeLeaderboard(bytes.NewReader([]byte(`{"schema_version": 99}`))); err == nil {
		t.Error("schema version 99 accepted")
	}
}

func TestTournamentRejectsBadGrid(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestTournamentContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Grid: testGrid(48)}); err == nil {
		t.Error("pre-canceled context produced a leaderboard")
	}
}

// BenchmarkTournamentRound measures one full single-round tournament
// on the CI grid — the unit of cost phasearena multiplies by rounds.
// Caching is defeated by varying the seed per iteration.
func BenchmarkTournamentRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := testGrid(48)
		g.Seed = int64(i + 1)
		if _, err := Run(context.Background(), Config{Grid: g, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRoundGrouping pins which rounds one run covers: every round a
// cell is sure to reach, up to the kernel-log bound. Baselines always
// look ahead; managed cells only when nothing can be eliminated; the
// oracle and rounds past the bound play one round per run.
func TestRoundGrouping(t *testing.T) {
	p := &player{rounds: 4}
	cases := []struct {
		name                   string
		topK, round, intervals int
		alive                  int
		spec                   string
		want                   int
	}{
		{"keep all", 0, 1, 48, 6, "gpht_8_64", 4},
		{"keep all from round 2", 0, 2, 96, 6, "gpht_8_64", 3},
		{"top k covers the field", 6, 1, 48, 6, "gpht_8_64", 4},
		{"elimination", 3, 1, 48, 6, "gpht_8_64", 1},
		{"baseline under elimination", 3, 1, 48, 6, baselineSpec, 4},
		{"oracle", 0, 1, 48, 6, "oracle", 1},
		{"final round past the log bound", 0, 1, 16384, 6, "gpht_8_64", 3},
		{"round past the log bound", 0, 4, 131072, 6, "gpht_8_64", 1},
		{"baseline past the log bound", 0, 1, 65536, 6, baselineSpec, 1},
		{"last round", 0, 4, 48, 6, baselineSpec, 1},
	}
	for _, c := range cases {
		p.topK = c.topK
		if got := p.cover(c.round, c.intervals, c.alive, c.spec); got != c.want {
			t.Errorf("%s: cover = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestKeepAllRunsOncePerCell counts the governed runs of a tournament
// that eliminates nothing: one per baseline and per non-oracle cell
// for all three rounds, and one per oracle cell per round.
func TestKeepAllRunsOncePerCell(t *testing.T) {
	hub := telemetry.NewHub(6)
	cfg := keepAllConfig()
	cfg.Telemetry = hub
	runTournament(t, cfg)
	pairs := len(cfg.Grid.Workloads) * len(cfg.Grid.Granularities)
	want := uint64(pairs + pairs*(len(cfg.Grid.Specs)-1) + pairs*cfg.Rounds)
	if got := hub.FleetStarted.Value(); got != want {
		t.Errorf("FleetStarted = %d, want %d", got, want)
	}
	if got := hub.GovernorRuns.Value(); got != want {
		t.Errorf("GovernorRuns = %d, want %d", got, want)
	}
	if got, want := hub.TournamentCells.Value(), uint64(cfg.Rounds*pairs*len(cfg.Grid.Specs)); got != want {
		t.Errorf("TournamentCells = %d, want %d", got, want)
	}
}

// BenchmarkTournamentRounds measures a two-round tournament that
// eliminates nothing on the CI grid — the shape of the perfbench grid
// job, where each cell plays both rounds from one run. Caching is
// defeated by varying the seed per iteration.
func BenchmarkTournamentRounds(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := testGrid(48)
		g.Seed = int64(i + 1)
		if _, err := Run(context.Background(), Config{Grid: g, Rounds: 2, TopK: 0, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
