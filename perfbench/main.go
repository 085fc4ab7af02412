// Command perfbench is the repository's benchmark. It runs one
// workload — stream, tick, grid or figures — checks every output the
// programs produce, and prints one JSON verdict as the last line of
// its standard output: end-to-end metrics by default, per-layer
// metrics with -trace 1. See README.md beside this file for why each
// workload exists and what each metric should move.
//
// Usage (from the repository root, after building the binaries under
// test into -bin; perfbench/run.sh does both):
//
//	perfbench -bin .bench_build/bin -workload stream -seed 1 -seconds 20 -trace 0
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"phasemon/internal/wcache"
)

// env is one invocation's settings.
type env struct {
	bin, out string
	seed     int64
	seconds  time.Duration
	trace    bool
	tr       *tracer
}

// outcome is what a workload measured.
type outcome struct {
	e2e       map[string]float64 // untraced end-to-end metrics
	traced    map[string]float64 // the same metrics from the traced part
	layers    map[string]float64 // per-layer metrics (trace mode)
	attempted int64
	failed    int64
	notes     []string
}

var workloads = map[string]func(env) (outcome, error){
	"stream":  streamWorkload,
	"tick":    tickWorkload,
	"grid":    gridWorkload,
	"figures": figuresWorkload,
}

func main() {
	var (
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the phased and experiments binaries under test")
		out     = flag.String("out", ".bench_build", "directory for the span trace of -trace 1 runs")
		name    = flag.String("workload", "", "workload: stream, tick, grid or figures")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 20, "seconds to measure")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		job     = flag.String("job", "", "run one batch job in this process (used by the grid workload)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)
	if *job != "" {
		if err := gridJob(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench job:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload stream|tick|grid|figures, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	e := env{bin: *bin, out: *out, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if err := run(*name, w, e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, w func(env) (outcome, error), e env) error {
	for _, p := range []string{"phased", "experiments"} {
		if _, err := os.Stat(filepath.Join(e.bin, p)); err != nil {
			return fmt.Errorf("binary under test: %w", err)
		}
	}
	if e.trace {
		e.tr = newTracer()
	}
	o, err := w(e)
	if err != nil {
		return err
	}
	for _, n := range o.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	specs, vals := endToEnd, o.e2e
	if e.trace {
		specs, vals = perLayer(), o.layers
		path := filepath.Join(e.out, "trace", fmt.Sprintf("%s-seed%d.json", name, e.seed))
		if err := e.tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	metrics, err := fill(specs, vals)
	if err != nil {
		return err
	}
	report(o, specs, metrics)
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	if err := writeResult(os.Stdout, res); err != nil {
		return err
	}
	if o.failed > 0 {
		return fmt.Errorf("%d of %d outputs were wrong or missing", o.failed, o.attempted)
	}
	return nil
}

// report prints the metrics by name and unit on stderr, and in trace
// mode the traced end-to-end numbers beside the untraced ones.
func report(o outcome, specs []metricSpec, metrics map[string]metric) {
	fmt.Fprintf(os.Stderr, "failed_share %.6g (1)  [%d of %d]\n",
		float64(o.failed)/math.Max(1, float64(o.attempted)), o.failed, o.attempted)
	for _, s := range specs {
		fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", s.Name, metrics[s.Name].Value, s.Unit)
	}
	if o.traced == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "tracing overhead (traced vs untraced end-to-end):")
	names := make([]string, 0, len(o.traced))
	for n := range o.traced {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u, t := o.e2e[n], o.traced[n]
		fmt.Fprintf(os.Stderr, "  %-20s untraced %12.6g  traced %12.6g  (%+.1f%%)\n", n, u, t, 100*(t-u)/u)
	}
}

// newCache is a trace cache for the benchmark's own inputs.
func newCache() *wcache.Cache { return wcache.New(wcache.Config{}) }

// newLayers returns every per-layer metric at 0: a layer the workload
// does not exercise reports 0.
func newLayers() map[string]float64 {
	m := map[string]float64{}
	for _, s := range perLayer() {
		m[s.Name] = 0
	}
	return m
}
