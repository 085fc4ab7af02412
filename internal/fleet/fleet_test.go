package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"phasemon/internal/governor"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/wcache"
	"phasemon/internal/workload"
)

// sweepSpecs is a mixed sweep: several workloads, managed and
// monitoring policies, one custom classifier, one bounded translation.
func sweepSpecs() []Spec {
	return []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 60},
		{Workload: "applu_in", Policy: "gpht_8_128", Intervals: 60},
		{Workload: "applu_in", Policy: "reactive", Intervals: 60},
		{Workload: "gzip_graphic", Policy: "gpht_8_128", Intervals: 60},
		{Workload: "gzip_graphic", Policy: "mon:gpht_8_128", Intervals: 60},
		{Workload: "swim_in", Policy: "gpht_4_64", Intervals: 40},
		{Workload: "mcf_inp", Policy: "gpht_8_128", Intervals: 40, Bound: 0.05},
		{Workload: "equake_in", Policy: "varwindow_128_0.005", Intervals: 40},
		{Workload: "crafty_in", Policy: "oracle", Intervals: 40},
		{Workload: "applu_in", Policy: "oracle", Intervals: 60},
		// Five boundaries define six phases, matching the ladder so the
		// identity translation stays derivable.
		{Workload: "applu_in", Policy: "gpht_8_128", Phases: "0.004,0.008,0.012,0.02,0.03", Intervals: 40},
	}
}

// fingerprint reduces a result set to a canonical string: everything
// that must be bit-identical across worker counts.
func fingerprint(results []replayed) string {
	var b strings.Builder
	for i, r := range results {
		fmt.Fprintf(&b, "%d %+v", i, r.spec)
		if r.res != nil {
			fmt.Fprintf(&b, " pol=%s run=%v acc=%d/%d ov=%v bv=%d",
				r.res.Policy, r.res.Run,
				r.res.Accuracy.Correct(), r.res.Accuracy.Total(),
				r.res.OverheadFraction, r.res.BudgetViolations)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	specs := sweepSpecs()
	var want string
	for _, workers := range []int{1, 4, 16} {
		e := New(Config{Workers: workers, BaseSeed: 42})
		results, err := Play(context.Background(), e, specs, replayAll(context.Background()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(specs) {
			t.Fatalf("workers=%d: %d results for %d specs", workers, len(results), len(specs))
		}
		got := fingerprint(results)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d produced different results than workers=1:\n--- want\n%s--- got\n%s", workers, want, got)
		}
	}
}

// TestWorkloadCacheDeterminism is the wcache invisibility contract:
// a fleet replay, served from a workload-trace cache that earlier
// sweeps filled, must equal a governed run on a freshly synthesized
// generator, at every worker count.
func TestWorkloadCacheDeterminism(t *testing.T) {
	specs := sweepSpecs()
	traces := wcache.New(wcache.Config{})
	for _, workers := range []int{1, 4, 16} {
		results, err := Play(context.Background(), New(Config{Workers: workers, BaseSeed: 42, Traces: traces}), specs, replayAll(context.Background()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range results {
			want := referenceRun(t, r.spec)
			want.Log = nil
			if !reflect.DeepEqual(r.res, want) {
				t.Errorf("workers=%d spec %d (%s under %s): cached replay differs from a fresh generator",
					workers, i, r.spec.Workload, r.spec.Policy)
			}
		}
	}
}

// referenceRun executes a resolved spec on a fresh generator, without
// the engine or its trace cache. The oracle's future is therefore
// collected from the generator rather than read from a cached trace.
func referenceRun(t *testing.T, sp Spec) *governor.Result {
	t.Helper()
	prof, err := workload.ByName(sp.Workload)
	if err != nil {
		t.Fatal(err)
	}
	gen := prof.Generator(workload.Params{
		GranularityUops: float64(sp.GranularityUops),
		Seed:            sp.Seed,
		Intervals:       sp.Intervals,
	})
	cfg := governor.Config{GranularityUops: sp.GranularityUops}
	var tab *phase.Table
	if sp.Phases != "" {
		if tab, err = phase.ParseTable("custom", sp.Phases); err != nil {
			t.Fatal(err)
		}
		cfg.Classifier = tab
	}
	if sp.Bound > 0 {
		if cfg.Translation, err = BoundedTranslation(sp.Bound, tab); err != nil {
			t.Fatal(err)
		}
	}
	pol, err := policyFor(sp, gen, cfg.Classifier)
	if err != nil {
		t.Fatal(err)
	}
	res, err := governor.RunContext(context.Background(), gen, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWorkloadCacheShares: distinct specs over the same workload
// stream synthesize the trace once; the remainder are cache hits.
func TestWorkloadCacheShares(t *testing.T) {
	hub := telemetry.NewHub(6)
	e := New(Config{Workers: 2, Telemetry: hub})
	_, err := Play(context.Background(), e, []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 40},
		{Workload: "applu_in", Policy: "gpht_8_128", Intervals: 40},
		{Workload: "applu_in", Policy: "reactive", Intervals: 40},
	}, replayAll(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if got := hub.WorkloadCacheMisses.Value(); got != 1 {
		t.Errorf("WorkloadCacheMisses = %d, want 1 (one distinct trace)", got)
	}
	if got := hub.WorkloadCacheHits.Value(); got != 2 {
		t.Errorf("WorkloadCacheHits = %d, want 2", got)
	}
}

// TestCallerTraceCache: engines given one Config.Traces share it, so a
// trace one engine synthesized is a hit for the next.
func TestCallerTraceCache(t *testing.T) {
	hub := telemetry.NewHub(6)
	traces := wcache.New(wcache.Config{Telemetry: hub})
	specs := []Spec{{Workload: "applu_in", Policy: "baseline", Intervals: 40, Seed: 5}}
	for range 2 {
		if _, err := Play(context.Background(), New(Config{Workers: 1, Traces: traces}), specs, replayAll(context.Background())); err != nil {
			t.Fatal(err)
		}
	}
	if got := hub.WorkloadCacheMisses.Value(); got != 1 {
		t.Errorf("WorkloadCacheMisses = %d, want 1 (second engine reads the first's trace)", got)
	}
	if got := hub.WorkloadCacheHits.Value(); got != 1 {
		t.Errorf("WorkloadCacheHits = %d, want 1", got)
	}
}

func TestSharedWorkloadStreams(t *testing.T) {
	// Policies over the same workload must see the same input stream:
	// with derived seeds, the baseline and managed runs retire the same
	// instruction count.
	e := New(Config{Workers: 4, BaseSeed: 7})
	results, err := Play(context.Background(), e, []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 80},
		{Workload: "applu_in", Policy: "mon:gpht_8_128", Intervals: 80},
	}, replayAll(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].spec.Seed != results[1].spec.Seed {
		t.Fatalf("same workload resolved different seeds: %d vs %d",
			results[0].spec.Seed, results[1].spec.Seed)
	}
	if results[0].res.Run.Uops != results[1].res.Run.Uops {
		t.Errorf("baseline and monitored runs diverged on input: %v vs %v uops",
			results[0].res.Run.Uops, results[1].res.Run.Uops)
	}
}

func TestEffectiveSeed(t *testing.T) {
	a := Spec{Workload: "applu_in"}
	if s := a.EffectiveSeed(0); s == 0 {
		t.Error("derived seed must be nonzero")
	}
	if a.EffectiveSeed(1) != a.EffectiveSeed(1) {
		t.Error("derived seed must be stable")
	}
	if a.EffectiveSeed(1) == a.EffectiveSeed(2) {
		t.Error("derived seed must depend on the base seed")
	}
	b := Spec{Workload: "swim_in"}
	if a.EffectiveSeed(1) == b.EffectiveSeed(1) {
		t.Error("derived seed must depend on the workload")
	}
	managed := Spec{Workload: "applu_in", Policy: "gpht_8_128"}
	if a.EffectiveSeed(1) != managed.EffectiveSeed(1) {
		t.Error("derived seed must not depend on the policy")
	}
	pinned := Spec{Workload: "applu_in", Seed: 99}
	if pinned.EffectiveSeed(1) != 99 {
		t.Error("explicit seed must win")
	}
}

func TestRunFailuresPropagate(t *testing.T) {
	e := New(Config{Workers: 2})
	results, err := Play(context.Background(), e, []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 20},
		{Workload: "no_such_bench", Policy: "baseline", Intervals: 20},
		{Workload: "applu_in", Policy: "gpht_0", Intervals: 20},
	}, replayAll(context.Background()))
	if err == nil {
		t.Fatal("want error from failing specs")
	}
	if !strings.Contains(err.Error(), "no_such_bench") {
		t.Errorf("Play should report the lowest-index failure, got %v", err)
	}
	if results[0].res == nil {
		t.Error("healthy spec contaminated")
	}
	for _, i := range []int{1, 2} {
		if results[i].res != nil {
			t.Errorf("spec %d: played, want failed", i)
		}
	}
}

func TestCancellationNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Runs must be long enough that the whole sweep cannot finish
	// before cancel() lands; canceled replays abort at interval
	// granularity, so the long tail costs nothing.
	specs := make([]Spec, 32)
	for i := range specs {
		specs[i] = Spec{Workload: "applu_in", Policy: "gpht_8_128", Intervals: 50000, Seed: int64(i + 1)}
	}
	hub := telemetry.NewHub(6)
	go func() {
		// Cancel once the sweep is under way.
		for hub.FleetStarted.Value() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	results, err := Play(ctx, New(Config{Workers: 8, Telemetry: hub}), specs, replayAll(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Play err = %v, want context.Canceled", err)
	}
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(results), len(specs))
	}
	canceled := 0
	for _, r := range results {
		if r.res == nil {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("cancellation mid-sweep produced no canceled runs")
	}
	waitGoroutines(t, before)
}

// TestRunAllCanceledContext: a whole sweep whose context is canceled
// before it starts returns context.Canceled and plays nothing, and the
// engine it ran on still plays a later sweep exactly as a fresh one.
func TestRunAllCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Config{Workers: 2})
	specs := sweepSpecs()[:3]
	results, err := Play(ctx, e, specs, replayAll(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, r := range results {
		if r.res != nil {
			t.Errorf("spec %d: played in a canceled sweep", i)
		}
	}
	bg := context.Background()
	got, err := Play(bg, e, specs, replayAll(bg))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Play(bg, New(Config{Workers: 2}), specs, replayAll(bg))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fingerprint(got), fingerprint(want); g != w {
		t.Errorf("sweep after cancellation differs from a fresh engine's:\n%s\nwant:\n%s", g, w)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back
// to before: every worker must exit, so poll briefly for the scheduler
// to retire them.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTelemetryLifecycleCounters(t *testing.T) {
	hub := telemetry.NewHub(6)
	e := New(Config{Workers: 2, Telemetry: hub})
	specs := sweepSpecs()[:4]
	if _, err := Play(context.Background(), e, specs, replayAll(context.Background())); err != nil {
		t.Fatal(err)
	}
	if got := hub.FleetStarted.Value(); got != uint64(len(specs)) {
		t.Errorf("FleetStarted = %d, want %d", got, len(specs))
	}
	if got := hub.FleetCompleted.Value(); got != uint64(len(specs)) {
		t.Errorf("FleetCompleted = %d, want %d", got, len(specs))
	}
	if got := hub.FleetQueueDepth.Value(); got != 0 {
		t.Errorf("FleetQueueDepth = %v after sweep, want 0", got)
	}
	if hub.FleetRunSeconds.Snapshot().Count != uint64(len(specs)) {
		t.Errorf("FleetRunSeconds count = %d, want %d", hub.FleetRunSeconds.Snapshot().Count, len(specs))
	}
}
