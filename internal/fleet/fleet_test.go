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
	"phasemon/internal/kernelsim"
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
func fingerprint(results []Result) string {
	var b strings.Builder
	for i, r := range results {
		fmt.Fprintf(&b, "%d %+v", i, r.Spec)
		if r.Res != nil {
			fmt.Fprintf(&b, " pol=%s run=%v acc=%d/%d ov=%v bv=%d",
				r.Res.Policy, r.Res.Run,
				r.Res.Accuracy.Correct(), r.Res.Accuracy.Total(),
				r.Res.OverheadFraction, r.Res.BudgetViolations)
		}
		if r.Err != nil {
			fmt.Fprintf(&b, " err=%v", r.Err)
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
		results, err := e.RunAll(context.Background(), specs)
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
// a fleet run, served from the shared workload-trace cache, must equal
// a governed run on a freshly synthesized generator, at every worker
// count.
func TestWorkloadCacheDeterminism(t *testing.T) {
	specs := sweepSpecs()
	for _, workers := range []int{1, 4, 16} {
		results, err := New(Config{Workers: workers, BaseSeed: 42}).RunAll(context.Background(), specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range results {
			want := referenceRun(t, r.Spec)
			if !reflect.DeepEqual(r.Res, want) {
				t.Errorf("workers=%d spec %d (%s under %s): cached run differs from a fresh generator",
					workers, i, r.Spec.Workload, r.Spec.Policy)
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
	cfg := governor.Config{
		GranularityUops: sp.GranularityUops,
		Log:             make([]kernelsim.Entry, 0, sp.Intervals),
	}
	var tab *phase.Table
	if sp.Phases != "" {
		if tab, err = phase.ParseTable("custom", sp.Phases); err != nil {
			t.Fatal(err)
		}
		cfg.Classifier = tab
	}
	if sp.Bound > 0 {
		if cfg.Translation, err = boundedTranslation(sp.Bound, tab); err != nil {
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
	_, err := e.RunAll(context.Background(), []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 40},
		{Workload: "applu_in", Policy: "gpht_8_128", Intervals: 40},
		{Workload: "applu_in", Policy: "reactive", Intervals: 40},
	})
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
		if _, err := New(Config{Workers: 1, Traces: traces}).RunAll(context.Background(), specs); err != nil {
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
	results, err := e.RunAll(context.Background(), []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 80},
		{Workload: "applu_in", Policy: "mon:gpht_8_128", Intervals: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Spec.Seed != results[1].Spec.Seed {
		t.Fatalf("same workload resolved different seeds: %d vs %d",
			results[0].Spec.Seed, results[1].Spec.Seed)
	}
	if results[0].Res.Run.Uops != results[1].Res.Run.Uops {
		t.Errorf("baseline and monitored runs diverged on input: %v vs %v uops",
			results[0].Res.Run.Uops, results[1].Res.Run.Uops)
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
	results, err := e.RunAll(context.Background(), []Spec{
		{Workload: "applu_in", Policy: "baseline", Intervals: 20},
		{Workload: "no_such_bench", Policy: "baseline", Intervals: 20},
		{Workload: "applu_in", Policy: "gpht_0", Intervals: 20},
	})
	if err == nil {
		t.Fatal("want error from failing specs")
	}
	if !strings.Contains(err.Error(), "no_such_bench") {
		t.Errorf("RunAll should report the lowest-index failure, got %v", err)
	}
	if results[0].Res == nil || results[0].Err != nil {
		t.Errorf("healthy spec contaminated: %v", results[0].Err)
	}
	for _, i := range []int{1, 2} {
		if results[i].Res != nil || results[i].Err == nil {
			t.Errorf("spec %d: err %v, want failed", i, results[i].Err)
		}
	}
}

func TestCancellationNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Runs must be long enough that the whole sweep cannot finish
	// before cancel() lands; canceled runs abort at interval
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
	results, err := New(Config{Workers: 8, Telemetry: hub}).RunAll(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll err = %v, want context.Canceled", err)
	}
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(results), len(specs))
	}
	canceled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("cancellation mid-sweep produced no canceled runs")
	}
	waitGoroutines(t, before)
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

func TestRunAllCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Config{Workers: 2})
	_, err := e.RunAll(ctx, sweepSpecs()[:3])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestTelemetryLifecycleCounters(t *testing.T) {
	hub := telemetry.NewHub(6)
	e := New(Config{Workers: 2, Telemetry: hub})
	specs := sweepSpecs()[:4]
	if _, err := e.RunAll(context.Background(), specs); err != nil {
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
