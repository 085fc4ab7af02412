package tournament

import (
	"encoding/json"
	"io"
)

// SchemaVersion versions the leaderboard artifact. Consumers reject
// versions they don't know; producers bump it on any breaking change
// to the JSON layout.
const SchemaVersion = 1

// GridEcho is the grid as actually run — defaults filled in — echoed
// into the artifact so a leaderboard is self-describing.
type GridEcho struct {
	Workloads     []string `json:"workloads"`
	Specs         []string `json:"specs"`
	Granularities []uint64 `json:"granularities"`
	Intervals     int      `json:"intervals"`
	Seed          int64    `json:"seed"`
}

// Standing is one spec's rank line: its composite score and headline
// metrics, averaged over the cells it ran in the scope of the board.
type Standing struct {
	Rank           int     `json:"rank"`
	Spec           string  `json:"spec"`
	Score          float64 `json:"score"`
	Accuracy       float64 `json:"accuracy"`
	EDPImprovement float64 `json:"edp_improvement"`
	Cells          int     `json:"cells"`
}

// Round records one elimination round: every scored cell, the
// resulting standings, and who went home.
type Round struct {
	Round      int         `json:"round"`
	Intervals  int         `json:"intervals"`
	Cells      []CellScore `json:"cells"`
	Standings  []Standing  `json:"standings"`
	Eliminated []string    `json:"eliminated"`
}

// WorkloadBoard ranks the final round's survivors on one workload.
type WorkloadBoard struct {
	Workload  string     `json:"workload"`
	Standings []Standing `json:"standings"`
}

// Leaderboard is the tournament's complete, versioned artifact.
// Every field is a deterministic function of the grid: no wall-clock
// stamps, no worker-dependent values, slices in canonical order — so
// the encoded bytes are identical at any -workers count, which is the
// property tournament-smoke pins in CI.
type Leaderboard struct {
	SchemaVersion int             `json:"schema_version"`
	Grid          GridEcho        `json:"grid"`
	Rounds        []Round         `json:"rounds"`
	PerWorkload   []WorkloadBoard `json:"per_workload"`
	Overall       []Standing      `json:"overall"`
	Winner        string          `json:"winner"`
}

// Encode renders the leaderboard as indented JSON with a trailing
// newline. encoding/json is deterministic over these types (struct
// fields in declaration order, no maps anywhere), so equal
// leaderboards encode to equal bytes.
func (lb *Leaderboard) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(lb, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// DecodeLeaderboard parses an artifact produced by Encode, rejecting
// unknown schema versions.
//
//lint:unusedexport reference oracle: tests read Encode's and phasearena's artifacts back with it
func DecodeLeaderboard(r io.Reader) (*Leaderboard, error) {
	var lb Leaderboard
	if err := json.NewDecoder(r).Decode(&lb); err != nil {
		return nil, err
	}
	if lb.SchemaVersion != SchemaVersion {
		return nil, errUnknownSchema(lb.SchemaVersion)
	}
	return &lb, nil
}
