package governor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"phasemon/internal/core"
	"phasemon/internal/daq"
	"phasemon/internal/dvfs"
	"phasemon/internal/kernelsim"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/thermal"
	"phasemon/internal/workload"
)

// paperWorkloads are the four workloads the paper's Section 6 runs.
var paperWorkloads = []string{"applu_in", "gzip_graphic", "swim_in", "mcf_inp"}

// replaySpecs is every registered predictor kind plus the named
// policies: the baseline, reactive management, the oracle and a
// monitoring-only deployment.
func replaySpecs() []string {
	return append(core.RegisteredPredictors(), "baseline", "reactive", "oracle", "mon:gpht_8_128")
}

// trace is one workload stream of n intervals at a granularity, with
// its table.
type trace struct {
	gen  workload.Generator
	gran uint64
	tab  *machine.Table
}

func newTrace(t testing.TB, w string, gran uint64, n int) trace {
	t.Helper()
	p, err := workload.ByName(w)
	if err != nil {
		t.Fatal(err)
	}
	gen := p.Generator(workload.Params{Seed: 1, Intervals: n, GranularityUops: float64(gran)})
	tab, err := machine.NewTable(workload.Collect(gen, 0), gran)
	if err != nil {
		t.Fatal(err)
	}
	return trace{gen: gen, gran: gran, tab: tab}
}

// policyFor resolves a spec over the trace, building the oracle's
// future from the trace itself.
func (tr trace) policyFor(t testing.TB, spec string) Policy {
	t.Helper()
	pol, err := PolicyFromSpec(spec)
	if errors.Is(err, ErrOracleFuture) {
		future, ferr := FuturePhases(tr.gen, nil, machine.New(machine.Config{}))
		if ferr != nil {
			t.Fatal(ferr)
		}
		return Oracle(future)
	}
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// expandLog is the kernel log RunContext keeps of a run of n
// intervals, expanded from the records of a replay just run to n and
// its table: the newest DefaultLogCapacity entries, oldest first, as
// the ring keeps them.
func expandLog(rp *Replay, n int) []kernelsim.Entry {
	recs := rp.Records()
	recs = recs[max(0, len(recs)-kernelsim.DefaultLogCapacity):]
	if len(recs) == 0 {
		return nil
	}
	lo := n - len(recs)
	log := make([]kernelsim.Entry, 0, len(recs))
	for i, rec := range recs {
		i += lo
		set := dvfs.Setting(rec.Setting)
		memTx, cycles := rp.tab.Counters(i, set)
		_, _, _, s := rp.tab.At(i, set)
		log = append(log, kernelsim.Entry{
			Index:     i,
			Uops:      rp.gran,
			MemTx:     memTx,
			Cycles:    cycles,
			MemPerUop: s.MemPerUop,
			UPC:       s.UPC,
			Actual:    phase.ID(rec.Actual),
			Predicted: phase.ID(rec.Predicted),
			Setting:   set,
		})
	}
	return log
}

// checkReplay runs spec over the trace through RunContext and through
// a replay of its table, each observed by a hub of its own, and
// reports any difference in the result, kernel log included, or in
// what the two runs left in their hubs (hubsDiffer).
func (tr trace) checkReplay(t testing.TB, spec string) {
	t.Helper()
	pol := tr.policyFor(t, spec)
	wantHub, gotHub := telemetry.NewHub(phase.Default().NumPhases()), telemetry.NewHub(phase.Default().NumPhases())
	want, err := RunContext(context.Background(), tr.gen, pol, Config{GranularityUops: tr.gran, Telemetry: wantHub})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplay(tr.tab, pol, Config{GranularityUops: tr.gran, Telemetry: gotHub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.tab.Len()
	got, err := rp.Run(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	got.Log = expandLog(rp, n)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s %s gran %d n=%d: replay differs from RunContext:\n got run %+v acc %+v over %v viol %d\nwant run %+v acc %+v over %v viol %d\n logs equal: %v",
			tr.gen.Name(), spec, tr.gran, n,
			got.Run, got.Accuracy, got.OverheadFraction, got.BudgetViolations,
			want.Run, want.Accuracy, want.OverheadFraction, want.BudgetViolations,
			reflect.DeepEqual(got.Log, want.Log))
	}
	if diff := hubsDiffer(gotHub, wantHub); diff != "" {
		t.Errorf("%s %s gran %d n=%d: replay hub differs from RunContext's: %s", tr.gen.Name(), spec, tr.gran, n, diff)
	}
}

// hubsDiffer reports what a replay left in its hub (got) that differs
// from what RunContext left in its own (want), or "" when nothing does:
// every counter, gauge and histogram, float sums bit for bit, the
// confusion cells and the journal, event stamps included.
func hubsDiffer(got, want *telemetry.Hub) string {
	if gs, ws := got.Registry.Snapshot(), want.Registry.Snapshot(); !reflect.DeepEqual(gs, ws) {
		return fmt.Sprintf("registry\n got %+v\nwant %+v", gs, ws)
	}
	if g, w := got.Accuracy(), want.Accuracy(); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("confusion %v, want %v", g.Confusion, w.Confusion)
	}
	ge, we := got.Journal.Recent(0), want.Journal.Recent(0)
	if !reflect.DeepEqual(ge, we) || got.Journal.Dropped() != want.Journal.Dropped() {
		return fmt.Sprintf("journal of %d events (%d dropped), want %d (%d dropped)", len(ge), got.Journal.Dropped(), len(we), want.Journal.Dropped())
	}
	return ""
}

// TestReplayMatchesRunContext is the replay's contract: over a table
// of the same trace, a replay's result equals RunContext's field for
// field, floats bit for bit and the kernel log included, for every
// spec on every paper workload at two granularities; and at two
// lengths whose kernel log wraps the ring, the longer also past the
// replay's record window (both skipped under -short and -race, where
// they are slow and sequential).
func TestReplayMatchesRunContext(t *testing.T) {
	lengths := []int{1, 37, 257, 4096}
	if !testing.Short() && !raceEnabled {
		lengths = append(lengths, kernelsim.DefaultLogCapacity+300, recordWindow+300)
	}
	for _, w := range paperWorkloads {
		for _, gran := range []uint64{100_000_000, 50_000_000} {
			for _, n := range lengths {
				if n > recordWindow && gran != 100_000_000 {
					continue
				}
				tr := newTrace(t, w, gran, n)
				specs := replaySpecs()
				if n > kernelsim.DefaultLogCapacity && gran != 100_000_000 {
					// The wrapped ring is the same code at any
					// granularity; one is enough at this length.
					specs = []string{"gpht_8_128", "oracle", "baseline"}
				}
				if n > recordWindow {
					specs = []string{"gpht_8_128", "oracle"}
				}
				for _, spec := range specs {
					tr.checkReplay(t, spec)
				}
			}
		}
	}
}

// FuzzReplayMatchesRunContext searches the same contract over
// workload, spec, granularity, length (1 to 600) and seed. Its seeds
// are TestReplayMatchesRunContext's cases up to 600 intervals.
func FuzzReplayMatchesRunContext(f *testing.F) {
	for wi := range paperWorkloads {
		for si := range replaySpecs() {
			for _, half := range []bool{false, true} {
				for _, n := range []int{1, 37, 257} {
					f.Add(uint8(wi), uint8(si), half, uint16(n-1), int64(1))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, wi, si uint8, halfGran bool, length uint16, seed int64) {
		w := paperWorkloads[int(wi)%len(paperWorkloads)]
		specs := replaySpecs()
		spec := specs[int(si)%len(specs)]
		gran := uint64(100_000_000)
		if halfGran {
			gran = 50_000_000
		}
		n := 1 + int(length)%600
		p, err := workload.ByName(w)
		if err != nil {
			t.Fatal(err)
		}
		gen := p.Generator(workload.Params{Seed: seed, Intervals: n, GranularityUops: float64(gran)})
		tab, err := machine.NewTable(workload.Collect(gen, 0), gran)
		if err != nil {
			t.Fatal(err)
		}
		trace{gen: gen, gran: gran, tab: tab}.checkReplay(t, spec)
	})
}

// TestPrefixMatchesShorterRun pins what a tournament reads off one
// replay: advanced to N and then to 2N over a 2N-interval table, it
// returns at N the result of a RunContext of exactly N intervals, and
// at 2N that of the 2N-interval run.
func TestPrefixMatchesShorterRun(t *testing.T) {
	for _, spec := range []string{"baseline", "reactive", "gpht_8_128", "markov_2", "mon:gpht_8_128"} {
		for _, w := range paperWorkloads {
			for _, n := range []int{37, 100, 257, 1000} {
				long := newTrace(t, w, 100_000_000, 2*n)
				rp, err := NewReplay(long.tab, long.policyFor(t, spec), Config{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []int{n, 2 * n} {
					got, err := rp.Run(context.Background(), m)
					if err != nil {
						t.Fatal(err)
					}
					got.Log = expandLog(rp, m)
					want, err := Run(gen(t, w, m), long.policyFor(t, spec), Config{})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s: replay of a %d-interval table at %d differs from a %d-interval run", spec, w, 2*n, m, m)
					}
				}
			}
		}
	}
}

// TestLongPrefixMatchesShorterRun is TestPrefixMatchesShorterRun at
// the lengths of long tournament rounds: a round whose kernel log
// wraps the ring, then one that ends one interval after the replay's
// records first move past their window, when they hold the fewest
// (skipped under -short and -race).
func TestLongPrefixMatchesShorterRun(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("long sequential runs")
	}
	lengths := []int{kernelsim.DefaultLogCapacity + 300, recordWindow + 1}
	long := newTrace(t, "applu_in", 100_000_000, lengths[1])
	rp, err := NewReplay(long.tab, Proactive(8, 128), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range lengths {
		got, err := rp.Run(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		got.Log = expandLog(rp, m)
		want, err := Run(gen(t, "applu_in", m), Proactive(8, 128), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replay of a %d-interval table at %d differs from a %d-interval run", lengths[1], m, m)
		}
	}
}

// TestPrefixRefusals covers the lengths a replay refuses: one that
// falls below what it already replayed, one past the end of its table,
// and, for the oracle, which reads the future, any but the whole
// table.
func TestPrefixRefusals(t *testing.T) {
	tr := newTrace(t, "applu_in", 100_000_000, 200)
	rp, err := NewReplay(tr.tab, Proactive(8, 128), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Run(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{50, 201} {
		if _, err := rp.Run(context.Background(), n); err == nil || !strings.Contains(err.Error(), "cannot replay") {
			t.Errorf("replay from 100 to %d of 200: error %v, want a refusal", n, err)
		}
	}
	or, err := NewReplay(tr.tab, tr.policyFor(t, "oracle"), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := or.Run(context.Background(), 100); err == nil || !strings.Contains(err.Error(), "reads the future") {
		t.Errorf("oracle replay to 100 of 200: error %v, want a refusal", err)
	}
	if _, err := or.Run(context.Background(), 200); err != nil {
		t.Errorf("oracle replay of the whole table: %v", err)
	}
}

// TestReplayRefusals covers the configurations a table cannot replay:
// each is refused with an error, never run some other way.
func TestReplayRefusals(t *testing.T) {
	tr := newTrace(t, "applu_in", 100_000_000, 50)
	dtr, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermal.New(thermal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"actuator", Config{Actuator: &ThermalThrottle{Translation: dtr, LimitC: 40}}, "actuator"},
		{"thermal machine", Config{Machine: machine.Config{Thermal: th}}, "Config.Machine"},
		{"recorder", Config{Machine: machine.Config{Recorder: daq.NewWaveform()}}, "Config.Machine"},
		{"ladder", Config{Machine: machine.Config{Ladder: dtr.Ladder()}, Translation: dtr}, "Config.Machine"},
		{"granularity", Config{GranularityUops: 50_000_000}, "granularity"},
	}
	for _, c := range cases {
		if _, err := NewReplay(tr.tab, Proactive(8, 128), c.cfg, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestReplayCancel: a canceled context ends a replay with the
// context's error, as it ends RunContext.
func TestReplayCancel(t *testing.T) {
	tr := newTrace(t, "applu_in", 100_000_000, 100)
	rp, err := NewReplay(tr.tab, Proactive(8, 128), Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rp.Run(ctx, 100); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled replay: error %v, want context.Canceled", err)
	}
}

// TestReplayTelemetry: a replay counts one governor run and folds
// every interval, publishing after every 32nd interval of the run and
// the rest when Run returns, and stamps each interval's events with the
// replay's simulated time when its PMI fires: interval 0's stamp is its
// work span, and the stamps strictly increase.
func TestReplayTelemetry(t *testing.T) {
	tr := newTrace(t, "applu_in", 100_000_000, 100)
	hub := telemetry.NewHub(6)
	rp, err := NewReplay(tr.tab, Proactive(8, 128), Config{Telemetry: hub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ n, published int }{{40, 32}, {100, 96}} {
		if err := rp.replay(context.Background(), c.n); err != nil {
			t.Fatal(err)
		}
		if got := hub.Steps.Value(); got != uint64(c.published) {
			t.Errorf("replayed to %d: %d steps published, want %d", c.n, got, c.published)
		}
		if _, err := rp.Run(context.Background(), c.n); err != nil {
			t.Fatal(err)
		}
		if got := hub.Steps.Value(); got != uint64(c.n) {
			t.Errorf("after Run to %d: Steps = %d", c.n, got)
		}
		if got := hub.HandlerCost.Snapshot().Count; got != uint64(c.n) {
			t.Errorf("after Run to %d: HandlerCost observed %d times", c.n, got)
		}
	}
	if got := hub.GovernorRuns.Value(); got != 1 {
		t.Errorf("GovernorRuns = %d, want 1", got)
	}
	dur, _, _, _ := tr.tab.At(0, 0)
	last := int64(-1)
	for _, e := range hub.Journal.Recent(0) {
		if e.Kind != telemetry.KindPMISample {
			continue
		}
		if e.Step == 0 && e.UnixNs != int64(math.Round(dur*1e9)) {
			t.Errorf("interval 0 stamped %d ns, want its work span %v s", e.UnixNs, dur)
		}
		if e.UnixNs <= last {
			t.Errorf("interval %d stamped %d ns, not after the previous interval's %d", e.Step, e.UnixNs, last)
		}
		last = e.UnixNs
	}
}

// TestReplayZeroAllocsPerInterval: the replay loop, the table's
// per-interval evaluation and an observed replay's fold and publish
// included, allocates nothing per interval.
func TestReplayZeroAllocsPerInterval(t *testing.T) {
	for _, hub := range []*telemetry.Hub{nil, telemetry.NewHub(6)} {
		tr := newTrace(t, "applu_in", 100_000_000, 4000)
		rp, err := NewReplay(tr.tab, Proactive(8, 128), Config{Telemetry: hub}, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		allocs := testing.AllocsPerRun(100, func() {
			n += 37
			if err := rp.replay(context.Background(), n); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("observed %v: replaying 37 intervals allocates %v times, want 0", hub != nil, allocs)
		}
	}
}
