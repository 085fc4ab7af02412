package fleet

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phasemon/internal/governor"
	"phasemon/internal/telemetry"
)

// seededSpecs is n short runs told apart by their explicit seeds
// 1..n, so a reduction can name the spec it was handed.
func seededSpecs(n, intervals int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Workload: "applu_in", Policy: "gpht_8_128", Intervals: intervals, Seed: int64(i + 1)}
	}
	return specs
}

// countingReduce replays each spec to its end, reduces it to its seed
// and counts the calls per seed, so a test can check which specs f saw
// and how often.
func countingReduce(ctx context.Context, n int) (func(Spec, *governor.Replay) (int64, error), []atomic.Int64) {
	calls := make([]atomic.Int64, n)
	return func(sp Spec, rp *governor.Replay) (int64, error) {
		calls[sp.Seed-1].Add(1)
		_, err := rp.Run(ctx, rp.Len())
		return sp.Seed, err
	}, calls
}

// checkCalls fails unless spec i was reduced want(i) times.
func checkCalls(t *testing.T, calls []atomic.Int64, want func(i int) int64) {
	t.Helper()
	for i := range calls {
		if got := calls[i].Load(); got != want(i) {
			t.Errorf("spec %d reduced %d times, want %d", i, got, want(i))
		}
	}
}

func once(int) int64 { return 1 }

// TestReduceOrderAndCalls: Play's reductions come back in spec order at
// any worker count, f runs exactly once per spec, and each reduction
// equals the same function applied to a serial governor.RunContext of
// the spec.
func TestReduceOrderAndCalls(t *testing.T) {
	specs := sweepSpecs()
	for _, workers := range []int{1, 2, 4} {
		calls := make([]atomic.Int64, len(specs))
		e := New(Config{Workers: workers, BaseSeed: 42})
		got, err := Play(context.Background(), e, specs, func(sp Spec, rp *governor.Replay) (string, error) {
			// The resolved seed is shared per workload, so the spec is
			// identified by content, not by seed.
			for i := range specs {
				if e.resolve(specs[i]) == sp {
					calls[i].Add(1)
				}
			}
			res, err := rp.Run(context.Background(), rp.Len())
			return fingerprint([]replayed{{spec: sp, res: res}}), err
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(specs) {
			t.Fatalf("workers=%d: %d reductions for %d specs", workers, len(got), len(specs))
		}
		for i := range got {
			sp := e.resolve(specs[i])
			want := referenceRun(t, sp)
			want.Log = nil
			if w := fingerprint([]replayed{{spec: sp, res: want}}); got[i] != w {
				t.Errorf("workers=%d: reduction %d = %q, want %q", workers, i, got[i], w)
			}
		}
		checkCalls(t, calls, once)
	}
}

// TestReduceFailureLowestIndex: planted failing specs yield the
// lowest-index error, in the same text at every worker count, while
// every healthy spec is still reduced once and no failed one is.
func TestReduceFailureLowestIndex(t *testing.T) {
	specs := seededSpecs(6, 20)
	specs[2].Workload = "no_such_bench"
	specs[4].Policy = "gpht_0"
	var first string
	for _, workers := range []int{1, 2, 4} {
		hub := telemetry.NewHub(6)
		f, calls := countingReduce(context.Background(), len(specs))
		got, err := Play(context.Background(), New(Config{Workers: workers, Telemetry: hub}), specs, f)
		if err == nil {
			t.Fatalf("workers=%d: no error, want failures", workers)
		}
		if first == "" {
			first = err.Error()
		}
		if err.Error() != first {
			t.Errorf("workers=%d: err %q, workers=1 err %q", workers, err, first)
		}
		if !strings.HasPrefix(err.Error(), "fleet: spec 2 (no_such_bench under gpht_8_128): ") {
			t.Errorf("workers=%d: err %q does not name the lowest-index failure", workers, err)
		}
		failed := func(i int) bool { return i == 2 || i == 4 }
		for i, seed := range got {
			if want := int64(i + 1); !failed(i) && seed != want || failed(i) && seed != 0 {
				t.Errorf("workers=%d: reduction %d is of spec seed %d", workers, i, seed)
			}
		}
		checkCalls(t, calls, func(i int) int64 {
			if failed(i) {
				return 0
			}
			return 1
		})
		if d := hub.FleetQueueDepth.Value(); d != 0 {
			t.Errorf("workers=%d: FleetQueueDepth = %v after a failing sweep, want 0", workers, d)
		}
	}
}

// TestReduceCanceledBefore: a context canceled before the sweep
// returns ctx.Err() itself, reduces nothing and starts no run.
func TestReduceCanceledBefore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hub := telemetry.NewHub(6)
	specs := seededSpecs(5, 40)
	f, calls := countingReduce(ctx, len(specs))
	_, err := Play(ctx, New(Config{Workers: 2, Telemetry: hub}), specs, f)
	// The contract returns ctx.Err() itself, not a run's wrapped copy.
	if err != ctx.Err() || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ctx.Err() = context.Canceled", err)
	}
	checkCalls(t, calls, func(int) int64 { return 0 })
	if hub.FleetStarted.Value() != 0 {
		t.Errorf("FleetStarted = %d, want no run started", hub.FleetStarted.Value())
	}
	if d := hub.FleetQueueDepth.Value(); d != 0 {
		t.Errorf("FleetQueueDepth = %v, want 0", d)
	}
}

// TestReduceCanceledDuringNoGoroutineLeak: a context canceled mid-sweep
// returns ctx.Err(), reduces no spec more than once, settles the queue
// gauge and leaves no worker behind.
func TestReduceCanceledDuringNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := seededSpecs(32, 50000)
	hub := telemetry.NewHub(6)
	go func() {
		for hub.FleetStarted.Value() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	calls := make([]atomic.Int64, len(specs))
	_, err := Play(ctx, New(Config{Workers: 4, Telemetry: hub}), specs, func(sp Spec, rp *governor.Replay) (int, error) {
		calls[sp.Seed-1].Add(1)
		_, err := rp.Run(ctx, rp.Len())
		return 0, err
	})
	// The contract returns ctx.Err() itself, not a run's wrapped copy.
	if err != ctx.Err() || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ctx.Err() = context.Canceled", err)
	}
	reduced := 0
	for i := range calls {
		switch calls[i].Load() {
		case 0:
		case 1:
			reduced++
		default:
			t.Errorf("spec %d reduced %d times", i, calls[i].Load())
		}
	}
	if reduced == len(specs) {
		t.Error("cancellation mid-sweep left no spec unreduced")
	}
	if d := hub.FleetQueueDepth.Value(); d != 0 {
		t.Errorf("FleetQueueDepth = %v, want 0", d)
	}
	waitGoroutines(t, before)
}

// TestReduceQueueDepthSettles: the pending gauge returns to 0 after a
// healthy sweep.
func TestReduceQueueDepthSettles(t *testing.T) {
	hub := telemetry.NewHub(6)
	specs := seededSpecs(7, 30)
	f, calls := countingReduce(context.Background(), len(specs))
	if _, err := Play(context.Background(), New(Config{Workers: 3, Telemetry: hub}), specs, f); err != nil {
		t.Fatal(err)
	}
	checkCalls(t, calls, once)
	if got := hub.FleetCompleted.Value(); got != uint64(len(specs)) {
		t.Errorf("FleetCompleted = %d, want %d", got, len(specs))
	}
	if d := hub.FleetQueueDepth.Value(); d != 0 {
		t.Errorf("FleetQueueDepth = %v after sweep, want 0", d)
	}
}
