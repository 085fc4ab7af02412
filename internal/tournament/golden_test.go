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
// Other architectures may fuse multiply-adds and round differently, so
// the pin holds on amd64 only.
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
