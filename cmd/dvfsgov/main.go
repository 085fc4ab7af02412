// Command dvfsgov runs dynamic power management guided by runtime
// phase prediction — the paper's full deployed system — and reports
// power/performance against the unmanaged baseline.
//
// Usage:
//
//	dvfsgov -bench applu_in
//	dvfsgov -bench equake_in -policy reactive
//	dvfsgov -bench swim_in -compare
//	dvfsgov -bench applu_in -bound 0.05
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"phasemon/internal/fleet"
	"phasemon/internal/governor"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/phased"
	"phasemon/internal/profiling"
	"phasemon/internal/telemetry"
	"phasemon/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "applu_in", "benchmark name")
		policy    = flag.String("policy", "gpht", "management policy: gpht, reactive, oracle, or any predictor spec from the zoo (e.g. gpht_8_1024, fixwindow_8, runlength, markov_2, dtree_4, linreg_16)")
		workers   = flag.Int("workers", 0, "concurrent runs in compare mode (0 = GOMAXPROCS)")
		intervals = flag.Int("intervals", 0, "run length in sampling intervals (0 = benchmark default)")
		seed      = flag.Int64("seed", 1, "workload seed")
		compare   = flag.Bool("compare", false, "run baseline, reactive and GPHT side by side")
		bound     = flag.Float64("bound", 0, "if > 0, use conservative phase definitions bounding degradation at this fraction (Section 6.3)")
		live      = flag.Duration("live", 0, "govern REAL hardware (perf_event_open + cpufreq) for this duration instead of the simulated platform")
		livePid   = flag.Int("pid", 0, "process to monitor in -live mode (0 = this process)")
		liveEvery = flag.Duration("period", 100*time.Millisecond, "sampling period in -live mode")
		telAddr   = flag.String("telemetry-addr", "", "serve live telemetry over HTTP on this address during the run (/metrics, /snapshot, /events); e.g. 127.0.0.1:9100 or :0")
		telEvery  = flag.Int("telemetry-every", 25, "in -live mode, print a one-line telemetry summary every N intervals (0 disables)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfsgov:", err)
		os.Exit(1)
	}
	if *live > 0 {
		err = runLive(*live, *liveEvery, *livePid, *policy, *telAddr, *telEvery)
	} else {
		err = run(os.Stdout, *bench, *policy, *intervals, *seed, *compare, *bound, *telAddr, *workers)
	}
	// Flush the profiles before exiting: os.Exit skips defers, so the
	// stop call sits on the shared path of both outcomes.
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfsgov:", err)
		os.Exit(1)
	}
}

// startTelemetry builds a hub and serves its HTTP endpoints when addr
// is non-empty. It returns a nil hub (safe everywhere downstream) when
// telemetry is disabled; the returned stop func is always callable.
func startTelemetry(addr string, numPhases int) (*telemetry.Hub, func(), error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	hub := telemetry.NewHub(numPhases)
	stop, err := serveTelemetry(hub, addr)
	if err != nil {
		return nil, nil, err
	}
	return hub, stop, nil
}

// serveTelemetry serves hub's HTTP endpoints on addr. The returned
// stop exits gracefully and bounded: in-flight scrapes finish instead
// of being cut off mid-response, and repeated stops are safe.
func serveTelemetry(hub *telemetry.Hub, addr string) (stop func(), err error) {
	bound, shutdown, err := hub.ServePrefix(addr, "")
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	fmt.Printf("telemetry: serving http://%s (/metrics, /snapshot, /events)\n", bound)
	drainer := phased.NewDrainer(2*time.Second, phased.DrainFunc(shutdown))
	return func() { _ = drainer.Drain() }, nil
}

func run(w io.Writer, bench, policy string, intervals int, seed int64, compare bool, bound float64, telemetryAddr string, workers int) error {
	prof, err := workload.ByName(bench)
	if err != nil {
		return err
	}

	hub, stopTel, err := startTelemetry(telemetryAddr, phase.Default().NumPhases())
	if err != nil {
		return err
	}
	defer stopTel()

	if bound > 0 {
		// The fleet engine derives the same conservative translation per
		// run from Spec.Bound; derive it here once more only to print it.
		tr, err := fleet.BoundedTranslation(bound, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "conservative translation for a %.0f%% degradation bound:\n%s\n",
			bound*100, tr.Describe(phase.Default()))
	}

	polSpecs := []string{"baseline"}
	switch {
	case compare:
		polSpecs = append(polSpecs, "reactive", "gpht")
	case policy == "oracle":
		polSpecs = append(polSpecs, "oracle")
	default:
		// Accept any predictor spec the registry knows; reject the rest
		// before dispatching the sweep.
		if _, err := governor.PolicyFromSpec(policy); err != nil {
			return fmt.Errorf("unknown policy %q (gpht, reactive, oracle, or a predictor spec): %w", policy, err)
		}
		polSpecs = append(polSpecs, policy)
	}

	specs := make([]fleet.Spec, len(polSpecs))
	for i, ps := range polSpecs {
		specs[i] = fleet.Spec{
			Workload:  bench,
			Policy:    ps,
			Intervals: intervals,
			Seed:      seed,
			Bound:     bound,
		}
	}
	engine := fleet.New(fleet.Config{Workers: workers, Telemetry: hub})
	rows, err := fleet.Play(context.Background(), engine, specs, tableRow)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "benchmark: %s (%s)\n\n", prof.Name, prof.Quadrant)
	writeTable(w, rows)
	if hub != nil {
		fmt.Fprintln(w, "\ntelemetry:", hub.Summary())
	}
	return nil
}

// row is what the results table prints of one run.
type row struct {
	policy string
	run    machine.RunResult
	acc    string
}

// tableRow plays a spec's whole run on the fleet worker that set its
// replay up and reduces it to its row, so no replay record is kept.
func tableRow(_ fleet.Spec, rp *governor.Replay) (row, error) {
	r, err := rp.Run(context.Background(), rp.Len())
	if err != nil {
		return row{}, err
	}
	acc := "-"
	if a, err := r.Accuracy.Accuracy(); err == nil {
		acc = fmt.Sprintf("%.1f%%", a*100)
	}
	return row{policy: r.Policy, run: r.Run, acc: acc}, nil
}

// writeTable prints every row against the first, the baseline.
func writeTable(w io.Writer, rows []row) {
	base := &governor.Result{Run: rows[0].run}
	fmt.Fprintf(w, "%-16s %10s %10s %8s %12s %9s %9s %9s %8s\n",
		"policy", "time[s]", "energy[J]", "BIPS", "EDP[Js]", "EDPimpr", "perfdeg", "powersav", "acc")
	for _, r := range rows {
		managed := &governor.Result{Run: r.run}
		fmt.Fprintf(w, "%-16s %10.3f %10.2f %8.3f %12.2f %8.1f%% %8.1f%% %8.1f%% %8s\n",
			r.policy, r.run.TimeS, r.run.EnergyJ, r.run.BIPS(), r.run.EDP(),
			governor.EDPImprovement(base, managed)*100,
			governor.PerformanceDegradation(base, managed)*100,
			governor.PowerSavings(base, managed)*100,
			r.acc)
	}
}
