// Command phasemon runs live phase monitoring and prediction on a
// synthetic SPEC2000 workload, reproducing the paper's
// monitoring-only deployment: the PMI-driven kernel module samples the
// counters every 100M uops, classifies each interval, and predicts the
// next phase — with no DVFS actuation.
//
// Usage:
//
//	phasemon -list
//	phasemon -bench applu_in
//	phasemon -bench equake_in -predictor lastvalue -intervals 2000
//	phasemon -bench applu_in -csv applu.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"phasemon/internal/analysis"
	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/kernelsim"
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
		predictor = flag.String("predictor", "gpht", "predictor spec: gpht, lastvalue, fixwindow, varwindow, duration, runlength, markov_<order>, dtree_<depth>, linreg_<window> (see the README's predictor grammar table)")
		depth     = flag.Int("depth", 8, "GPHT history depth")
		entries   = flag.Int("entries", 128, "GPHT pattern-table entries")
		window    = flag.Int("window", 128, "fixed/variable window size")
		threshold = flag.Float64("threshold", 0.005, "variable-window transition threshold")
		intervals = flag.Int("intervals", 0, "run length in sampling intervals (0 = benchmark default)")
		seed      = flag.Int64("seed", 1, "workload seed")
		csvPath   = flag.String("csv", "", "write the per-interval trace to this CSV file")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		verbose   = flag.Bool("v", false, "with -list, include quadrant and description")
		live      = flag.Duration("live", 0, "monitor REAL hardware counters (perf_event_open) for this duration instead of the simulated platform")
		livePid   = flag.Int("pid", 0, "process to monitor in -live mode (0 = this process)")
		liveEvery = flag.Duration("period", 100*time.Millisecond, "sampling period in -live mode")
		liveLoad  = flag.Bool("liveload", true, "generate a synthetic phase-alternating load in -live self-monitoring mode")
		phases    = flag.String("phases", "", "custom Mem/Uop phase boundaries, comma-separated (default: the paper's Table 1)")
		analyze   = flag.Bool("analyze", false, "print stream-structure analysis (entropy, runs, predictability ceiling) after the run")
		telAddr   = flag.String("telemetry-addr", "", "serve live telemetry over HTTP on this address during the run (/metrics, /snapshot, /events); e.g. 127.0.0.1:9100 or :0")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phasemon:", err)
		os.Exit(1)
	}
	// Dispatch through a closure so every branch — including error
	// paths that end in os.Exit, which skips defers — flushes the
	// profiles through the single stopProf call below.
	err = func() error {
		switch {
		case *list:
			if *verbose {
				for _, p := range workload.All() {
					fmt.Printf("%-18s %s  %s\n", p.Name, p.Quadrant, p.Description)
				}
			} else {
				for _, n := range workload.Names() {
					fmt.Println(n)
				}
			}
			return nil
		case *live > 0:
			cls, err := classifierFor(*phases)
			if err != nil {
				return err
			}
			pred, err := buildPredictor(*predictor, *depth, *entries, *window, *threshold, cls)
			if err != nil {
				return err
			}
			hub, stopTel, err := startTelemetry(*telAddr, cls.NumPhases())
			if err != nil {
				return err
			}
			defer stopTel()
			return runLive(pred, *live, *liveEvery, *livePid, *liveLoad && *livePid == 0, hub)
		default:
			return run(*bench, *predictor, *phases, *depth, *entries, *window, *threshold, *intervals, *seed, *csvPath, *analyze, *telAddr)
		}
	}()
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "phasemon:", err)
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
	bound, shutdown, err := hub.ServePrefix(addr, "")
	if err != nil {
		return nil, nil, fmt.Errorf("telemetry: %w", err)
	}
	fmt.Printf("telemetry: serving http://%s (/metrics, /snapshot, /events)\n", bound)
	// Graceful, bounded exit: in-flight scrapes finish instead of
	// being cut off mid-response, and repeated stops are safe.
	drainer := phased.NewDrainer(2*time.Second, phased.DrainFunc(shutdown))
	return hub, func() { _ = drainer.Drain() }, nil
}

// buildPredictor resolves the legacy flag surface (-predictor plus
// -depth/-entries/-window/-threshold) into a core predictor spec and
// builds it through the registry; a -predictor value that is already a
// full spec ("gpht_8_1024", "duration_0.5") passes through unchanged.
func buildPredictor(kind string, depth, entries, window int, threshold float64, cls phase.Classifier) (core.Predictor, error) {
	return core.NewPredictorFromSpec(specFor(kind, depth, entries, window, threshold), core.SpecEnv{Classifier: cls})
}

// specFor expands the legacy shorthand kinds with their geometry flags
// into the spec grammar.
func specFor(kind string, depth, entries, window int, threshold float64) string {
	switch kind {
	case "gpht":
		return fmt.Sprintf("gpht_%d_%d", depth, entries)
	case "fixwindow":
		return fmt.Sprintf("fixwindow_%d", window)
	case "varwindow":
		return fmt.Sprintf("varwindow_%d_%g", window, threshold)
	default:
		return kind
	}
}

// classifierFor resolves the -phases flag.
func classifierFor(spec string) (*phase.Table, error) {
	if spec == "" {
		return phase.Default(), nil
	}
	return phase.ParseTable("custom", spec)
}

func run(bench, predictor, phases string, depth, entries, window int, threshold float64, intervals int, seed int64, csvPath string, analyze bool, telemetryAddr string) error {
	prof, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	cls, err := classifierFor(phases)
	if err != nil {
		return err
	}
	pred, err := buildPredictor(predictor, depth, entries, window, threshold, cls)
	if err != nil {
		return err
	}
	// The hub exists before the monitor and machine so observation is
	// wired at construction; there is no post-hoc telemetry retrofit.
	hub, stopTel, err := startTelemetry(telemetryAddr, cls.NumPhases())
	if err != nil {
		return err
	}
	defer stopTel()
	var monOpts []core.Option
	if hub != nil {
		monOpts = append(monOpts, core.WithTelemetry(hub))
	}
	mon, err := core.NewMonitor(cls, pred, monOpts...)
	if err != nil {
		return err
	}
	mod, err := kernelsim.NewModule(kernelsim.Config{Monitor: mon, Telemetry: hub})
	if err != nil {
		return err
	}
	m := machine.New(machine.Config{Telemetry: hub})
	if err := mod.Load(m); err != nil {
		return err
	}
	gen := prof.Generator(workload.Params{Seed: seed, Intervals: intervals})
	res, err := m.Run(gen, mod)
	if err != nil {
		return err
	}

	acc, err := mon.Tally().Accuracy()
	if err != nil {
		return err
	}
	fmt.Printf("benchmark:            %s (%s)\n", prof.Name, prof.Quadrant)
	fmt.Printf("predictor:            %s\n", pred.Name())
	fmt.Printf("intervals sampled:    %d (%.0fM uops each)\n", mod.Samples(), 100.0)
	fmt.Printf("simulated time:       %.2f s\n", res.TimeS)
	fmt.Printf("prediction accuracy:  %.2f%%\n", acc*100)
	fmt.Printf("handler overhead:     %.5f%% of run time, %d budget violations\n",
		m.OverheadFraction()*100, mod.BudgetViolations())
	if hub != nil {
		fmt.Printf("telemetry:            %s\n", hub.Summary())
	}

	fmt.Println("\nper-phase accuracy:")
	for p := 1; p <= cls.NumPhases(); p++ {
		if a, ok := mon.Confusion().PerPhaseAccuracy(phase.ID(p)); ok {
			fmt.Printf("  %s: %.1f%%\n", phase.ID(p), a*100)
		}
	}

	if analyze {
		if err := printAnalysis(mod, cls); err != nil {
			return err
		}
	}

	if csvPath != "" {
		if err := writeCSV(csvPath, mod); err != nil {
			return err
		}
		fmt.Printf("\ntrace written to %s\n", csvPath)
	}
	return nil
}

// printAnalysis reduces the kernel log with the analysis package: the
// offline evaluation a user-level tool performs.
func printAnalysis(mod *kernelsim.Module, cls *phase.Table) error {
	entries := mod.ReadLog()
	stream := make([]phase.ID, len(entries))
	for i, e := range entries {
		stream[i] = e.Actual
	}
	n := cls.NumPhases()
	ent, err := analysis.Entropy(stream, n)
	if err != nil {
		return err
	}
	tr, err := analysis.NewTransitions(stream, n)
	if err != nil {
		return err
	}
	fmt.Printf("\nstream structure:\n")
	fmt.Printf("  entropy:            %.2f bits\n", ent)
	fmt.Printf("  self-loop fraction: %.1f%% (last-value ceiling)\n", tr.SelfLoopFraction()*100)
	if n <= 15 {
		bound, err := analysis.PredictabilityBound(stream, n, 8)
		if err != nil {
			return err
		}
		fmt.Printf("  order-8 ceiling:    %.1f%%\n", bound*100)
	}
	runs, err := analysis.Runs(stream, n)
	if err != nil {
		return err
	}
	fmt.Println("  runs per phase:")
	for _, r := range runs {
		if r.Count == 0 {
			continue
		}
		fmt.Printf("    %s: %d runs, mean %.1f, max %d\n", r.Phase, r.Count, r.MeanLen, r.MaxLen)
	}
	return nil
}

func writeCSV(path string, mod *kernelsim.Module) error {
	log := kernelsim.ToTrace(mod.ReadLog(), dvfs.PentiumM())
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := log.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
