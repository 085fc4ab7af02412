package tournament

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestLeaderboardMatchesGolden pins the leaderboard bytes for the
// tournament-smoke grid (plus the paper's 64-entry GPHT) across
// commits: worker-count invariance only compares runs within one tree,
// so a change that moves a simulated watt or cycle is caught here.
// Pinned products do not make the floats portable: math.Exp and
// math.Log run per-architecture assembly, and math/rand's NormFloat64
// and ExpFloat64 call both and fuse multiply-adds of their own on
// arm64, so the pin holds on amd64 only.
func TestLeaderboardMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden floats are pinned on amd64, not %s", runtime.GOARCH)
	}
	g := testGrid(48)
	g.Specs = append(g.Specs, "gpht_8_64")
	lb := runTournament(t, Config{Grid: g, Rounds: 2, TopK: 3, Workers: 2})
	var buf bytes.Buffer
	if err := lb.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "grid.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("leaderboard drifted from testdata/grid.golden:\n--- got ---\n%s", buf.Bytes())
	}
}

// keepAllConfig is the no-elimination, multi-round shape the perfbench
// grid job plays, small enough for -race CI: every cell reaches every
// round, and the oracle rides along so a policy that reads the future
// is covered too.
func keepAllConfig() Config {
	g := testGrid(48)
	g.Specs = append(g.Specs, "oracle", "gpht_8_64")
	g.Granularities = []uint64{100_000_000, 50_000_000}
	return Config{Grid: g, Rounds: 3, TopK: 0, Workers: 2}
}

// TestKeepAllLeaderboardMatchesGolden pins the leaderboard bytes of a
// three-round tournament that eliminates nothing, the path on which a
// managed cell plays every round from one run. Like the default grid's
// pin, it holds on amd64 only.
func TestKeepAllLeaderboardMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden floats are pinned on amd64, not %s", runtime.GOARCH)
	}
	lb := runTournament(t, keepAllConfig())
	var buf bytes.Buffer
	if err := lb.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "grid-keepall.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("leaderboard drifted from testdata/grid-keepall.golden:\n--- got ---\n%s", buf.Bytes())
	}
}
