package fleet

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"phasemon/internal/governor"
	"phasemon/internal/telemetry"
)

// replayed is what a test reads of a replay: the resolved spec it
// played, its result and a copy of its records.
type replayed struct {
	spec Spec
	res  *governor.Result
	recs []governor.Record
}

// replayAll is a Play reduction that replays each spec to its whole
// run and copies its records out.
func replayAll(ctx context.Context) func(Spec, *governor.Replay) (replayed, error) {
	return func(sp Spec, rp *governor.Replay) (replayed, error) {
		res, err := rp.Run(ctx, rp.Len())
		return replayed{sp, res, slices.Clone(rp.Records())}, err
	}
}

// TestPlayMatchesRunContext: every spec of the sweep — the oracle, a
// bounded translation and a custom classifier included — replays to
// the result a serial governor.RunContext over the full machine
// returns, its records matching the kernel log, at any worker count.
func TestPlayMatchesRunContext(t *testing.T) {
	specs := sweepSpecs()
	for _, workers := range []int{1, 2, 4} {
		got, err := Play(context.Background(), New(Config{Workers: workers, BaseSeed: 42}), specs, replayAll(context.Background()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range got {
			full := referenceRun(t, r.spec)
			want := *full
			want.Log = nil
			recs := make([]governor.Record, len(full.Log))
			for j, e := range full.Log {
				recs[j] = governor.Record{UPC: e.UPC, Setting: uint8(e.Setting), Actual: uint8(e.Actual), Predicted: uint8(e.Predicted)}
			}
			if !reflect.DeepEqual(*r.res, want) || !reflect.DeepEqual(r.recs, recs) {
				t.Errorf("workers=%d spec %d (%s under %s): replay differs from the full run", workers, i, r.spec.Workload, r.spec.Policy)
			}
		}
	}
}

// TestPlayTelemetry: a replay sweep records the run lifecycle, one
// governor run per spec and one trace-cache lookup per spec, folds
// every replayed interval into the shared hub, and settles the queue
// depth.
func TestPlayTelemetry(t *testing.T) {
	hub := telemetry.NewHub(6)
	specs := sweepSpecs()
	if _, err := Play(context.Background(), New(Config{Workers: 3, Telemetry: hub}), specs, replayAll(context.Background())); err != nil {
		t.Fatal(err)
	}
	intervals := 0
	for _, sp := range specs {
		intervals += sp.Intervals
	}
	if got := hub.Steps.Value(); got != uint64(intervals) {
		t.Errorf("Steps = %d, want the sweep's %d intervals", got, intervals)
	}
	n := uint64(len(specs))
	for name, got := range map[string]uint64{
		"FleetStarted":   hub.FleetStarted.Value(),
		"FleetCompleted": hub.FleetCompleted.Value(),
		"RunSeconds":     hub.FleetRunSeconds.Snapshot().Count,
		"GovernorRuns":   hub.GovernorRuns.Value(),
		"cache lookups":  hub.WorkloadCacheHits.Value() + hub.WorkloadCacheMisses.Value(),
	} {
		if got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if got := hub.FleetQueueDepth.Value(); got != 0 {
		t.Errorf("FleetQueueDepth = %v after sweep, want 0", got)
	}
}

// TestPlayFailures: a spec that fails to set up, or whose reduction
// fails, fails the sweep with the lowest-index error and is counted as
// failed; the other specs still play.
func TestPlayFailures(t *testing.T) {
	hub := telemetry.NewHub(6)
	specs := []Spec{
		{Workload: "applu_in", Policy: "gpht_8_128", Intervals: 40},
		{Workload: "applu_in", Policy: "no_such_predictor", Intervals: 40},
		{Workload: "applu_in", Policy: "reactive", Intervals: 40},
	}
	boom := errors.New("boom")
	var calls atomic.Int64
	got, err := Play(context.Background(), New(Config{Workers: 2, Telemetry: hub}), specs, func(sp Spec, rp *governor.Replay) (int, error) {
		calls.Add(1)
		if sp.Policy == "reactive" {
			return 0, boom
		}
		res, err := rp.Run(context.Background(), sp.Intervals)
		if err != nil {
			return 0, err
		}
		return int(res.Run.PMIs), nil
	})
	if err == nil || !strings.Contains(err.Error(), "spec 1") {
		t.Fatalf("error %v, want spec 1's", err)
	}
	if got[0] != 40 || calls.Load() != 2 {
		t.Errorf("reductions %v over %d calls, want spec 0 played and the bad spec never reduced", got, calls.Load())
	}
	if f := hub.FleetFailed.Value(); f != 2 {
		t.Errorf("FleetFailed = %d, want 2", f)
	}
}

// TestPlayCanceled: a sweep canceled before it starts reduces nothing
// and returns the context's error.
func TestPlayCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Play(ctx, New(Config{Workers: 2}), sweepSpecs(), func(Spec, *governor.Replay) (int, error) {
		t.Error("reduction called in a canceled sweep")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v, want context.Canceled", err)
	}
}
