package governor

import (
	"math"
	"testing"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/telemetry"
	"phasemon/internal/workload"
)

// TestRunFeedsTelemetryHub checks the end-to-end wiring: a governed
// run with Config.Telemetry set must leave the hub's counters, live
// accuracy view, and journal consistent with the run's own accounting.
func TestRunFeedsTelemetryHub(t *testing.T) {
	prof, err := workload.ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	gen := prof.Generator(workload.Params{Seed: 1, Intervals: 60})
	hub := telemetry.NewHub(6)

	r, err := Run(gen, Proactive(8, 128), Config{Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}

	n := uint64(len(r.Log))
	if n == 0 {
		t.Fatal("run produced no log entries")
	}
	if got := hub.Steps.Value(); got != n {
		t.Errorf("Steps = %d, want %d", got, n)
	}
	if got := hub.PMISamples.Value(); got != n {
		t.Errorf("PMISamples = %d, want %d", got, n)
	}
	if got := hub.GovernorRuns.Value(); got != 1 {
		t.Errorf("GovernorRuns = %d, want 1", got)
	}
	v := hub.Accuracy()
	if v.Total != r.Accuracy.Total() || v.Correct != r.Accuracy.Correct() {
		t.Errorf("hub accuracy %d/%d, monitor tally %d/%d",
			v.Correct, v.Total, r.Accuracy.Correct(), r.Accuracy.Total())
	}
	if hub.DVFSTransitions.Value() == 0 {
		t.Error("managed run over a variable benchmark recorded no DVFS transitions")
	}
	if hub.Journal.Len() == 0 {
		t.Error("journal is empty after an observed run")
	}

	// An unobserved run must not touch the hub.
	gen.Reset()
	if _, err := Run(gen, Proactive(8, 128), Config{}); err != nil {
		t.Fatal(err)
	}
	if got := hub.Steps.Value(); got != n {
		t.Errorf("unobserved run changed hub Steps: %d -> %d", n, got)
	}
}

// publishWatch is a run's workload stream that notes, as the run asks
// for each interval, how many steps the hub holds: every interval
// before it has been handled, and its PMI handler has not yet run.
type publishWatch struct {
	workload.Generator
	hub       *telemetry.Hub
	published []uint64 // published[i]: Steps when interval i is asked for
	setting   float64  // the current-setting gauge when interval 0 is asked for
}

func (w *publishWatch) Next() (cpusim.Work, bool) {
	if len(w.published) == 0 {
		w.setting = w.hub.CurrentSetting.Value()
	}
	w.published = append(w.published, w.hub.Steps.Value())
	return w.Generator.Next()
}

// TestObservedRunJournal pins an observed run's journal interval by
// interval against its kernel log. The PMI handler is the run's only
// hub holder: each interval journals, in order, its prediction
// verdict, its phase transition, the DVFS change its actuation made
// and its PMI sample — every event stamped with the simulated time
// its PMI fired and carrying the interval's kernel-log index. Interval
// 0's stamp is its work span and the stamps strictly increase. The
// handler publishes after every 32nd interval and Unload the rest. The
// DVFS changes account for every transition the run made, and the
// current-setting gauge reads the machine's initial setting once the
// module is loaded and the final one at the end.
func TestObservedRunJournal(t *testing.T) {
	const n = 200
	tr := newTrace(t, "applu_in", 100_000_000, n)
	hub := telemetry.NewHub(6)
	hub.CurrentSetting.Set(-1)
	watch := &publishWatch{Generator: tr.gen, hub: hub}

	r, err := Run(watch, Proactive(8, 128), Config{Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	log := r.Log
	if len(log) != n || r.Run.Transitions == 0 {
		t.Fatalf("run logged %d intervals and %d DVFS transitions; the test needs %d and some", len(log), r.Run.Transitions, n)
	}
	for i, got := range watch.published[:n] {
		if want := uint64(i / 32 * 32); got != want {
			t.Errorf("hub held %d steps when interval %d was asked for, want %d", got, i, want)
		}
	}
	if got := hub.Steps.Value(); got != n {
		t.Errorf("hub holds %d steps after the run, want %d", got, n)
	}
	if want := float64(log[0].Setting); watch.setting != want {
		t.Errorf("current-setting gauge after Load = %v, want the initial setting %v", watch.setting, want)
	}
	if hub.Journal.Dropped() != 0 {
		t.Fatalf("journal dropped %d events; size the run to fit", hub.Journal.Dropped())
	}

	byStep := make([][]telemetry.Event, n)
	lastStep := -1
	for _, e := range hub.Journal.Recent(0) {
		if e.Step < lastStep || e.Step < 0 || e.Step >= n {
			t.Fatalf("event %+v out of interval order (previous step %d)", e, lastStep)
		}
		lastStep = e.Step
		byStep[e.Step] = append(byStep[e.Step], e)
	}
	// The run's translation is Table 2's identity: interval i's
	// prediction picks the setting interval i+1 runs at.
	trans, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
	dur, _, _, _ := tr.tab.At(0, log[0].Setting)
	changes := 0
	for i, evs := range byStep {
		e := log[i]
		var want []telemetry.Event
		if i > 0 {
			prev := log[i-1]
			want = append(want, telemetry.Event{Kind: telemetry.KindPrediction,
				Predicted: int(prev.Predicted), Actual: int(e.Actual), Correct: prev.Predicted == e.Actual})
			if e.Actual != prev.Actual {
				want = append(want, telemetry.Event{Kind: telemetry.KindPhaseTransition, From: int(prev.Actual), To: int(e.Actual)})
			}
		}
		next := trans.Setting(e.Predicted)
		if i+1 < n && log[i+1].Setting != next {
			t.Fatalf("interval %d predicted %v but interval %d ran at %v", i, e.Predicted, i+1, log[i+1].Setting)
		}
		if next != e.Setting {
			changes++
			want = append(want, telemetry.Event{Kind: telemetry.KindDVFSChange, From: int(e.Setting), To: int(next)})
		}
		want = append(want, telemetry.Event{Kind: telemetry.KindPMISample, MemPerUop: e.MemPerUop, UPC: e.UPC})
		if len(evs) != len(want) {
			t.Fatalf("interval %d journaled %d events %+v, want %d", i, len(evs), evs, len(want))
		}
		for j, got := range evs {
			w := want[j]
			w.Seq, w.Step, w.UnixNs = got.Seq, i, evs[0].UnixNs
			if got != w {
				t.Errorf("interval %d event %d = %+v, want %+v", i, j, got, w)
			}
		}
		if i == 0 && evs[0].UnixNs != int64(math.Round(dur*1e9)) {
			t.Errorf("interval 0 stamped %d ns, want its work span %v s", evs[0].UnixNs, dur)
		}
		if i > 0 && evs[0].UnixNs <= byStep[i-1][0].UnixNs {
			t.Errorf("interval %d stamped %d ns, not after interval %d's %d", i, evs[0].UnixNs, i-1, byStep[i-1][0].UnixNs)
		}
	}
	if changes != r.Run.Transitions || hub.DVFSTransitions.Value() != uint64(changes) {
		t.Errorf("journal holds %d DVFS changes, the run made %d transitions, the hub counted %d",
			changes, r.Run.Transitions, hub.DVFSTransitions.Value())
	}
	if got, want := hub.CurrentSetting.Value(), float64(trans.Setting(log[n-1].Predicted)); got != want {
		t.Errorf("current-setting gauge at the end = %v, want the final setting %v", got, want)
	}
}
