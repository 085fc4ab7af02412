package fleet

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// countingReduce reduces each run to its seed and counts the calls per
// seed, so a test can check that f saw every spec exactly once.
func countingReduce(n int) (func(Result) int64, []atomic.Int64) {
	calls := make([]atomic.Int64, n)
	return func(r Result) int64 {
		calls[r.Spec.Seed-1].Add(1)
		return r.Spec.Seed
	}, calls
}

func checkOncePerSpec(t *testing.T, calls []atomic.Int64) {
	t.Helper()
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Errorf("spec %d reduced %d times, want 1", i, got)
		}
	}
}

// TestReduceOrderAndCalls: reductions come back in spec order at any
// worker count, f runs exactly once per spec, and the reductions equal
// the same function applied to RunAll's results.
func TestReduceOrderAndCalls(t *testing.T) {
	specs := sweepSpecs()
	full, err := New(Config{Workers: 1, BaseSeed: 42}).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(full))
	for i, r := range full {
		want[i] = fingerprint([]Result{r})
	}
	for _, workers := range []int{1, 2, 4} {
		calls := make([]atomic.Int64, len(specs))
		got, err := Reduce(context.Background(), New(Config{Workers: workers, BaseSeed: 42}), specs,
			func(r Result) string {
				// The resolved seed is shared per workload, so the
				// spec is identified by content, not by seed.
				for i, sp := range full {
					if sp.Spec == r.Spec {
						calls[i].Add(1)
					}
				}
				return fingerprint([]Result{r})
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(specs) {
			t.Fatalf("workers=%d: %d reductions for %d specs", workers, len(got), len(specs))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d: reduction %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
		checkOncePerSpec(t, calls)
	}
}

// TestReduceFailureMatchesRunAll: a planted failing spec yields the
// lowest-index error, in the same text RunAll reports, while every
// spec, healthy or failed, is still reduced once.
func TestReduceFailureMatchesRunAll(t *testing.T) {
	specs := seededSpecs(6, 20)
	specs[2].Workload = "no_such_bench"
	specs[4].Policy = "gpht_0"
	for _, workers := range []int{1, 2, 4} {
		hub := telemetry.NewHub(6)
		e := New(Config{Workers: workers, Telemetry: hub})
		_, runAllErr := e.RunAll(context.Background(), specs)
		f, calls := countingReduce(len(specs))
		got, err := Reduce(context.Background(), e, specs, f)
		if err == nil || runAllErr == nil {
			t.Fatalf("workers=%d: errors %v / %v, want failures", workers, err, runAllErr)
		}
		if err.Error() != runAllErr.Error() {
			t.Errorf("workers=%d: Reduce err %q, RunAll err %q", workers, err, runAllErr)
		}
		if !strings.HasPrefix(err.Error(), "fleet: spec 2 (no_such_bench under gpht_8_128): ") {
			t.Errorf("workers=%d: err %q does not name the lowest-index failure", workers, err)
		}
		for i, seed := range got {
			if seed != int64(i+1) {
				t.Errorf("workers=%d: reduction %d is of spec seed %d", workers, i, seed)
			}
		}
		checkOncePerSpec(t, calls)
		if d := hub.FleetQueueDepth.Value(); d != 0 {
			t.Errorf("workers=%d: FleetQueueDepth = %v after a failing sweep, want 0", workers, d)
		}
	}
}

// TestReduceCanceledBefore: a context canceled before the sweep
// returns ctx.Err(); every spec is still reduced, once, as canceled.
func TestReduceCanceledBefore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hub := telemetry.NewHub(6)
	specs := seededSpecs(5, 40)
	calls := make([]atomic.Int64, len(specs))
	got, err := Reduce(ctx, New(Config{Workers: 2, Telemetry: hub}), specs, func(r Result) bool {
		calls[r.Spec.Seed-1].Add(1)
		return errors.Is(r.Err, context.Canceled) && r.Res == nil
	})
	// The contract returns ctx.Err() itself, not a run's wrapped copy.
	if err != ctx.Err() || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ctx.Err() = context.Canceled", err)
	}
	for i, canceled := range got {
		if !canceled {
			t.Errorf("spec %d was not reduced as a canceled run", i)
		}
	}
	checkOncePerSpec(t, calls)
	if hub.FleetStarted.Value() != 0 {
		t.Errorf("FleetStarted = %d, want no run started", hub.FleetStarted.Value())
	}
	if d := hub.FleetQueueDepth.Value(); d != 0 {
		t.Errorf("FleetQueueDepth = %v, want 0", d)
	}
}

// TestReduceCanceledDuringNoGoroutineLeak: a context canceled mid-sweep
// returns ctx.Err(), still reduces every spec once, settles the queue
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
	got, err := Reduce(ctx, New(Config{Workers: 4, Telemetry: hub}), specs, func(r Result) bool {
		calls[r.Spec.Seed-1].Add(1)
		return errors.Is(r.Err, context.Canceled)
	})
	// The contract returns ctx.Err() itself, not a run's wrapped copy.
	if err != ctx.Err() || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ctx.Err() = context.Canceled", err)
	}
	canceled := 0
	for _, c := range got {
		if c {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("cancellation mid-sweep reduced no canceled runs")
	}
	checkOncePerSpec(t, calls)
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
	f, calls := countingReduce(len(specs))
	if _, err := Reduce(context.Background(), New(Config{Workers: 3, Telemetry: hub}), specs, f); err != nil {
		t.Fatal(err)
	}
	checkOncePerSpec(t, calls)
	if got := hub.FleetCompleted.Value(); got != uint64(len(specs)) {
		t.Errorf("FleetCompleted = %d, want %d", got, len(specs))
	}
	if d := hub.FleetQueueDepth.Value(); d != 0 {
		t.Errorf("FleetQueueDepth = %v after sweep, want 0", d)
	}
}
