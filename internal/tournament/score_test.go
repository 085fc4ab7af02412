package tournament

import (
	"context"
	"math"
	"reflect"
	"testing"

	"phasemon/internal/fleet"
	"phasemon/internal/governor"
	"phasemon/internal/kernelsim"
	"phasemon/internal/phase"
	"phasemon/internal/workload"
)

// referenceScoreCell scores a cell from two full governor results,
// kernel logs included, walking the log once for CPI error and once
// more for the misprediction breakdown. Replay scoring must match it
// bit for bit.
func referenceScoreCell(cell Cell, intervals, numPhases int, managed, baseline *governor.Result) CellScore {
	cs := CellScore{
		Workload:        cell.Workload,
		Spec:            cell.Spec,
		GranularityUops: cell.GranularityUops,
		Intervals:       intervals,
	}
	if acc, err := managed.Accuracy.Accuracy(); err == nil {
		cs.Accuracy = acc
	}
	cs.CPIError = referenceCPIError(managed, numPhases)
	cs.EDPImprovement = governor.EDPImprovement(baseline, managed)
	cs.EnergySavings = governor.EnergySavings(baseline, managed)
	cs.PerfDegradation = governor.PerformanceDegradation(baseline, managed)
	cs.Mispredicts = referenceMispredicts(managed, numPhases)
	cs.Score = score(cs)
	return cs
}

// referenceCPIError walks the log for CPI error alone, the reference
// scoreLog is checked against: each logged interval's measured CPI
// against the mean CPI of the phase predicted for it.
func referenceCPIError(r *governor.Result, numPhases int) float64 {
	sum := make([]float64, numPhases+1)
	n := make([]int, numPhases+1)
	var gsum float64
	var gn int
	for _, e := range r.Log {
		if e.UPC <= 0 {
			continue
		}
		cpi := 1 / e.UPC
		gsum += cpi
		gn++
		if e.Actual.Valid(numPhases) {
			sum[e.Actual] += cpi
			n[e.Actual]++
		}
	}
	if gn == 0 {
		return 0
	}
	gmean := gsum / float64(gn)
	mean := make([]float64, numPhases+1)
	for p := 1; p <= numPhases; p++ {
		mean[p] = gmean
		if n[p] > 0 {
			mean[p] = sum[p] / float64(n[p])
		}
	}
	var errSum float64
	var errN int
	for i := 1; i < len(r.Log); i++ {
		e := r.Log[i]
		if e.UPC <= 0 {
			continue
		}
		m := gmean
		if p := r.Log[i-1].Predicted; p.Valid(numPhases) {
			m = mean[p]
		}
		errSum += math.Abs(1/e.UPC - m)
		errN++
	}
	if errN == 0 {
		return 0
	}
	return errSum / float64(errN)
}

// referenceMispredicts is the misprediction breakdown as a walk of its
// own, the reference scoreLog's fold is checked against: interval i is
// scored against entry i−1's prediction, by the actual phase's class.
func referenceMispredicts(r *governor.Result, numPhases int) []ClassTally {
	out := make([]ClassTally, phase.NumClasses)
	for i := range out {
		out[i].Class = (phase.ClassCPUBound + phase.Class(i)).String()
	}
	for i := 1; i < len(r.Log); i++ {
		e := r.Log[i]
		c := phase.ClassOf(e.Actual, numPhases)
		if !c.Valid() {
			continue
		}
		cell := &out[int(c)-1]
		cell.Intervals++
		if r.Log[i-1].Predicted != e.Actual {
			cell.Total++
			if e.Actual != r.Log[i-1].Actual {
				cell.Transition++
			} else {
				cell.Steady++
			}
		}
	}
	return out
}

// logScore runs scoreLog over a full result's kernel log.
func logScore(r *governor.Result, numPhases int) (float64, []ClassTally) {
	recs := make([]governor.Record, len(r.Log))
	for i, e := range r.Log {
		recs[i] = governor.Record{UPC: e.UPC, Setting: uint8(e.Setting), Actual: uint8(e.Actual), Predicted: uint8(e.Predicted)}
	}
	return scoreLog(recs, numPhases)
}

func TestMispredictBreakdownAgreesWithTally(t *testing.T) {
	r := governedRun(t, governor.Proactive(8, 128))
	_, cells := logScore(r, 6)
	if len(cells) != 6 {
		t.Fatalf("%d cells, want one per canonical class", len(cells))
	}
	var intervals, misses int
	for i, c := range cells {
		if want := (phase.ClassCPUBound + phase.Class(i)).String(); c.Class != want {
			t.Errorf("cell %d holds class %v, want %v (ascending order)", i, c.Class, want)
		}
		if c.Transition+c.Steady != c.Total {
			t.Errorf("class %v: transition %d + steady %d != total %d", c.Class, c.Transition, c.Steady, c.Total)
		}
		intervals += c.Intervals
		misses += c.Total
	}
	// The first interval is unscored, so cells cover len(Log)−1
	// intervals and the miss count matches the run's accuracy tally.
	if want := len(r.Log) - 1; intervals != want {
		t.Errorf("cells cover %d intervals, want %d", intervals, want)
	}
	if want := r.Accuracy.Total() - r.Accuracy.Correct(); misses != want {
		t.Errorf("cells count %d misses, tally counts %d", misses, want)
	}
	if misses == 0 {
		t.Error("managed applu run reports zero mispredictions; breakdown is vacuous")
	}
}

func TestMispredictBreakdownTransitionSplit(t *testing.T) {
	// Under last-value prediction every miss on applu's recurring
	// phase pattern happens exactly at a transition: inside a steady
	// run, "same as last interval" is always right.
	_, cells := logScore(governedRun(t, governor.Reactive()), 6)
	var total, transition int
	for _, c := range cells {
		total += c.Total
		transition += c.Transition
	}
	if total == 0 {
		t.Fatal("reactive applu run has no mispredictions to split")
	}
	if transition != total {
		t.Errorf("last-value misses: %d of %d at transitions, want all", transition, total)
	}
}

// TestScoreLogMatchesReferences: the one walk's CPI error and
// breakdown equal the two reference walks', floats bit for bit.
func TestScoreLogMatchesReferences(t *testing.T) {
	for _, pol := range []governor.Policy{governor.Proactive(8, 128), governor.Reactive(), governor.Unmanaged()} {
		r := governedRun(t, pol)
		cpi, mis := logScore(r, 6)
		if want := referenceCPIError(r, 6); math.Float64bits(cpi) != math.Float64bits(want) {
			t.Errorf("%s: CPI error %v, reference %v", pol.Name(), cpi, want)
		}
		if want := referenceMispredicts(r, 6); !reflect.DeepEqual(mis, want) {
			t.Errorf("%s: breakdown %+v, reference %+v", pol.Name(), mis, want)
		}
	}
}

// governedRun is a 400-interval applu_in run under pol on the full
// machine.
func governedRun(t *testing.T, pol governor.Policy) *governor.Result {
	t.Helper()
	p, err := workload.ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	r, err := governor.Run(p.Generator(workload.Params{Seed: 1, Intervals: 400}), pol, governor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSummaryScoringMatchesFullResults runs every round of two
// two-granularity tournaments — one with elimination, one keeping the
// whole field, whose cells score their early rounds part way through
// one replay — again as full, standalone governor runs on the machine,
// and scores each cell with referenceScoreCell: every CellScore field
// must equal the tournament's, floats compared bit for bit.
func TestSummaryScoringMatchesFullResults(t *testing.T) {
	g := Grid{
		Workloads:     []string{"applu_in", "gzip_graphic"},
		Specs:         []string{"lastvalue", "reactive", "gpht_4_64", "markov_2", "dtree_4"},
		Granularities: []uint64{100_000_000, 50_000_000},
		Intervals:     48,
	}
	for _, cfg := range []Config{
		{Grid: g, Rounds: 2, TopK: 3, Workers: 2},
		{Grid: g, Rounds: 3, TopK: 0, Workers: 2},
	} {
		lb := runTournament(t, cfg)
		if len(lb.Rounds) != cfg.Rounds {
			t.Fatalf("top %d: %d rounds, want %d", cfg.TopK, len(lb.Rounds), cfg.Rounds)
		}
		if cfg.TopK > 0 && len(lb.Rounds[1].Cells) != 2*3*2 {
			t.Fatalf("top %d: %d cells in the second round, want 12", cfg.TopK, len(lb.Rounds[1].Cells))
		}
		replayRounds(t, cfg.Grid.withDefaults(), lb)
	}
}

// TestLongRoundScoringMatchesFullResults is the same check for rounds
// longer than the kernel log's bound: the first round's full runs keep
// a wrapped ring, and the second, twice as long, also carries each
// cell's replay past its record window. Both must score the newest
// DefaultLogCapacity intervals as the full runs' logs hold them.
func TestLongRoundScoringMatchesFullResults(t *testing.T) {
	if testing.Short() {
		t.Skip("long runs")
	}
	g := Grid{
		Workloads:     []string{"applu_in"},
		Specs:         []string{"gpht_8_128", "markov_2"},
		Granularities: []uint64{100_000_000},
		Intervals:     kernelsim.DefaultLogCapacity + 300,
	}
	cfg := Config{Grid: g, Rounds: 2, TopK: 0, Workers: 2}
	replayRounds(t, cfg.Grid.withDefaults(), runTournament(t, cfg))
}

// fullRun runs spec serially on the full machine, as a fleet engine
// with base seed seed resolves it: the standalone governor run a
// tournament cell's replay must match.
func fullRun(t *testing.T, spec string, w string, gran uint64, intervals int, seed int64) *governor.Result {
	t.Helper()
	p, err := workload.ByName(w)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := governor.PolicyFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	gen := p.Generator(workload.Params{
		GranularityUops: float64(gran),
		Seed:            fleet.Spec{Workload: w}.EffectiveSeed(seed),
		Intervals:       intervals,
	})
	r, err := governor.RunContext(context.Background(), gen, pol, governor.Config{GranularityUops: gran})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// replayRounds runs each of the leaderboard's rounds standalone, one
// full governor result per baseline and cell, and checks the round's
// scores against referenceScoreCell.
func replayRounds(t *testing.T, g Grid, lb *Leaderboard) {
	t.Helper()
	numPhases := phase.Default().NumPhases()
	for _, round := range lb.Rounds {
		for _, cs := range round.Cells {
			cell := Cell{Workload: cs.Workload, Spec: cs.Spec, GranularityUops: cs.GranularityUops}
			managed := fullRun(t, cs.Spec, cs.Workload, cs.GranularityUops, round.Intervals, g.Seed)
			base := fullRun(t, "baseline", cs.Workload, cs.GranularityUops, round.Intervals, g.Seed)
			want := referenceScoreCell(cell, round.Intervals, numPhases, managed, base)
			if !sameCellScore(cs, want) {
				t.Errorf("round %d cell %+v:\n got  %+v\n want %+v", round.Round, cell, cs, want)
			}
		}
	}
}

// sameCellScore compares every CellScore field, floats by their bits.
func sameCellScore(a, b CellScore) bool {
	floats := [][2]float64{
		{a.Accuracy, b.Accuracy},
		{a.CPIError, b.CPIError},
		{a.EDPImprovement, b.EDPImprovement},
		{a.EnergySavings, b.EnergySavings},
		{a.PerfDegradation, b.PerfDegradation},
		{a.Score, b.Score},
	}
	for _, f := range floats {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return a.Workload == b.Workload && a.Spec == b.Spec &&
		a.GranularityUops == b.GranularityUops && a.Intervals == b.Intervals &&
		reflect.DeepEqual(a.Mispredicts, b.Mispredicts)
}
