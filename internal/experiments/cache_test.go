package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasemon/internal/fleet"
	"phasemon/internal/governor"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/workload"
)

// figuresJob is the runner list of the benchmark's figures job.
var figuresJob = []string{"fig3", "fig4", "fig5", "fig11", "fig12", "fig13", "headline"}

// figureCalls are the public entry points behind figuresJob, in order.
var figureCalls = []struct {
	name string
	call func(Options) (any, error)
}{
	{"fig3", func(o Options) (any, error) { return Figure3(o) }},
	{"fig4", func(o Options) (any, error) { return Figure4(o) }},
	{"fig5", func(o Options) (any, error) { return Figure5(o) }},
	{"fig11", func(o Options) (any, error) { return Figure11(o) }},
	{"fig12", func(o Options) (any, error) { return Figure12(o) }},
	{"fig13", func(o Options) (any, error) { return Figure13(o) }},
	{"headline", func(o Options) (any, error) { return Headline(o) }},
}

// render writes the named runners the way cmd/experiments prints them.
func render(t *testing.T, names []string, o Options) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, name := range names {
		r, err := LookupAny(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "=== %s — %s ===\n", r.Name, r.Title)
		if err := r.Run(o, &b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// sameAsCold checks every figure of the figures job served from o.Cache
// against a standalone call with a private Cache.
func sameAsCold(t *testing.T, o Options) {
	t.Helper()
	for _, f := range figureCalls {
		shared, err := f.call(o)
		if err != nil {
			t.Fatalf("%s shared: %v", f.name, err)
		}
		cold := o
		cold.Cache = nil
		want, err := f.call(cold)
		if err != nil {
			t.Fatalf("%s cold: %v", f.name, err)
		}
		if !reflect.DeepEqual(shared, want) {
			t.Errorf("%s at %+v: shared Cache differs from a cold call:\n%+v\n%+v",
				f.name, o, shared, want)
		}
	}
}

// TestSharedCacheWork pins how much work the figures job does through
// one Cache: 33 benchmarks give 33 traces and 33 observation streams,
// and Figures 11-13 need 66 + 8 + 5 distinct governed runs, since
// Figure 12's baseline and GPHT runs and Figure 13's baselines are
// Figure 11's. The headline adds nothing.
func TestSharedCacheWork(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			hub := telemetry.NewHub(6)
			c := newCache(hub)
			o := Options{Intervals: 120, Workers: workers, Cache: c}
			render(t, figuresJob, o)
			if got := hub.FleetStarted.Value(); got != 79 {
				t.Errorf("governed runs started = %d, want 79", got)
			}
			if got := len(c.streams.m); got != 33 {
				t.Errorf("observation streams built = %d, want 33", got)
			}
			if got := hub.WorkloadCacheMisses.Value(); got != 33 {
				t.Errorf("trace cache misses = %d, want 33", got)
			}
			sameAsCold(t, o)
			if got := hub.FleetStarted.Value(); got != 79 {
				t.Errorf("re-serving the figures started %d more runs", got-79)
			}
		})
	}
}

// work counts what c has computed: observation streams, governed runs
// and figure results. Each memo entry is filled exactly once.
func work(c *Cache) [3]int {
	return [3]int{len(c.streams.m), len(c.runs.m), len(c.figures.m)}
}

// TestCacheKeyCompleteness serves Options that differ in one key field
// at a time from one Cache: each must see its own results, never a
// neighbour's, and must compute all of them anew. A key missing Seed
// or Intervals, or a run key missing Bound (Figure 13's bounded run is
// otherwise Figure 11's GPHT run) or Phases, would serve a stale
// value.
func TestCacheKeyCompleteness(t *testing.T) {
	c := NewCache()
	for _, o := range []Options{
		{Intervals: 100, Seed: 3},
		{Intervals: 100, Seed: 4},
		{Intervals: 130, Seed: 3},
	} {
		o.Workers, o.Cache = 2, c
		before := work(c)
		sameAsCold(t, o)
		after := work(c)
		// 33 streams, 79 runs (see TestSharedCacheWork), and Figures 3-5
		// and 11-13.
		if got, want := [3]int{after[0] - before[0], after[1] - before[1], after[2] - before[2]}, [3]int{33, 79, 6}; got != want {
			t.Errorf("%+v: computed %v (streams, runs, figures), want %v", o, got, want)
		}
	}

	o := Options{Intervals: 100, Seed: 3, Workers: 2, Cache: c}.withDefaults()
	specs := []fleet.Spec{
		spec(o, "applu_in", deployedSpec),
		spec(o, "applu_in", deployedSpec),
		spec(o, "applu_in", deployedSpec),
	}
	specs[1].Phases = "0.004,0.008,0.012,0.02,0.03"
	specs[2].Bound = 0.05
	got, err := c.run(o, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		if want := fullRun(t, sp); got[i].Run != want.Run {
			t.Errorf("spec %+v: cached run %+v, want %+v", sp, got[i].Run, want.Run)
		}
	}
}

// fullRun runs a spec with an explicit seed serially on the full
// machine (governor.RunContext): the run a cached replay must match.
func fullRun(t *testing.T, sp fleet.Spec) *governor.Result {
	t.Helper()
	prof, err := workload.ByName(sp.Workload)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := governor.PolicyFromSpec(sp.Policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg := governor.Config{GranularityUops: sp.GranularityUops}
	var tab *phase.Table
	if sp.Phases != "" {
		if tab, err = phase.ParseTable("custom", sp.Phases); err != nil {
			t.Fatal(err)
		}
		cfg.Classifier = tab
	}
	if sp.Bound > 0 {
		if cfg.Translation, err = fleet.BoundedTranslation(sp.Bound, tab); err != nil {
			t.Fatal(err)
		}
	}
	gen := prof.Generator(workload.Params{GranularityUops: float64(sp.GranularityUops), Seed: sp.Seed, Intervals: sp.Intervals})
	r, err := governor.RunContext(context.Background(), gen, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCacheSetupFailure: specs that cannot be set up fail, each with
// its own error, and a later request for one of them — a figure
// sharing the Cache — gets that error instead of waiting on a slot
// nobody sets.
func TestCacheSetupFailure(t *testing.T) {
	c := NewCache()
	o := Options{Intervals: 100, Workers: 2, Cache: c}.withDefaults()
	badPhases := spec(o, "applu_in", deployedSpec)
	badPhases.Phases = "0.01,x"
	specs := []fleet.Spec{spec(o, "applu_in", deployedSpec), badPhases, spec(o, "no_such_bench", deployedSpec)}
	run := func(specs []fleet.Spec) error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := c.run(o, specs)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatalf("run of %d specs did not return", len(specs))
			return nil
		}
	}
	for _, tc := range []struct {
		specs []fleet.Spec
		want  string // "" for success
	}{
		{specs, `boundary "x"`},
		{specs[:1], ""},
		{specs[1:2], `boundary "x"`},
		{specs[2:], `unknown benchmark "no_such_bench"`},
	} {
		err := run(tc.specs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%d specs from %s: %v", len(tc.specs), tc.specs[0].Workload, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%d specs from %s: error %v, want one containing %q", len(tc.specs), tc.specs[0].Workload, err, tc.want)
		}
	}
}

// TestExportCSVReusesCache: after the runners of "-run all" have
// filled a Cache, exporting the CSV datasets from it computes nothing
// new, and the files are byte-identical to the ones a build without
// the shared Cache exported (testdata/csv200.sha256, pinned on amd64
// like the other float goldens: math.Exp, math.Log and math/rand's
// NormFloat64 and ExpFloat64 round differently elsewhere).
func TestExportCSVReusesCache(t *testing.T) {
	var want map[string]string
	if runtime.GOARCH == "amd64" {
		want = readSums(t, filepath.Join("testdata", "csv200.sha256"))
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := NewCache()
			o := Options{Intervals: 200, Workers: workers, Cache: c}
			for _, r := range Registry() {
				if err := r.Run(o, io.Discard); err != nil {
					t.Fatalf("%s: %v", r.Name, err)
				}
			}
			before := work(c)
			dir := t.TempDir()
			if err := ExportCSV(o, dir); err != nil {
				t.Fatal(err)
			}
			if after := work(c); after != before {
				t.Errorf("ExportCSV recomputed work (streams, runs, figures): %v -> %v", before, after)
			}
			if want == nil {
				t.Skipf("CSV bytes are pinned on amd64, not %s", runtime.GOARCH)
			}
			for file, sum := range want {
				b, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != sum {
					t.Errorf("%s: sha256 %s, want %s", file, got, sum)
				}
			}
		})
	}
}

// readSums parses a sha256sum listing into file name -> hex digest.
func readSums(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		sum, file, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		sums[file] = sum
	}
	return sums
}

// TestMemoSingleFlight: concurrent requests for one key fill it once
// and all see that fill's value.
func TestMemoSingleFlight(t *testing.T) {
	var m memo[int, *int]
	var calls atomic.Int64
	const n = 8
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = m.get(7, func() (*int, error) {
				calls.Add(1)
				time.Sleep(time.Millisecond)
				return new(int), nil
			})
		}()
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fill ran %d times, want 1", c)
	}
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("request %d saw a different value", i)
		}
	}
}
