package governor

import (
	"math"
	"testing"
	"time"

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

// TestObservedRunJournal pins an observed run's journal interval by
// interval against its kernel log. The PMI handler is the run's only
// hub holder, so each interval reads the hub clock once and journals,
// in order, its prediction verdict, its phase transition, the DVFS
// change its actuation made and its PMI sample — every event stamped
// with that one reading and carrying the interval's kernel-log index.
// The DVFS changes account for every transition the run made, and the
// current-setting gauge reads the machine's initial setting once the
// module is loaded and the final one at the end.
func TestObservedRunJournal(t *testing.T) {
	prof, err := workload.ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	gen := prof.Generator(workload.Params{Seed: 1, Intervals: 200})
	var hub *telemetry.Hub
	var reads int64
	loadedSetting := math.NaN()
	hub = telemetry.NewHub(6, telemetry.WithClock(func() time.Time {
		if reads == 0 {
			// The first reading is the first interval's, before any
			// publication: the gauge holds what Load set.
			loadedSetting = hub.CurrentSetting.Value()
		}
		reads++
		return time.Unix(0, reads*1000)
	}))
	hub.CurrentSetting.Set(-1)

	r, err := Run(gen, Proactive(8, 128), Config{Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	log := r.Log
	n := len(log)
	if n == 0 || r.Run.Transitions == 0 {
		t.Fatalf("run logged %d intervals and %d DVFS transitions; the test needs both", n, r.Run.Transitions)
	}
	if reads != int64(n) {
		t.Errorf("hub clock read %d times over %d intervals, want one reading per interval", reads, n)
	}
	if want := float64(log[0].Setting); loadedSetting != want {
		t.Errorf("current-setting gauge after Load = %v, want the initial setting %v", loadedSetting, want)
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
	tr, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
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
		next := tr.Setting(e.Predicted)
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
		if i > 0 && len(byStep[i-1]) > 0 && evs[0].UnixNs == byStep[i-1][0].UnixNs {
			t.Errorf("intervals %d and %d share stamp %d", i-1, i, evs[0].UnixNs)
		}
	}
	if changes != r.Run.Transitions || hub.DVFSTransitions.Value() != uint64(changes) {
		t.Errorf("journal holds %d DVFS changes, the run made %d transitions, the hub counted %d",
			changes, r.Run.Transitions, hub.DVFSTransitions.Value())
	}
	if got, want := hub.CurrentSetting.Value(), float64(tr.Setting(log[n-1].Predicted)); got != want {
		t.Errorf("current-setting gauge at the end = %v, want the final setting %v", got, want)
	}
}
