package experiments

import (
	"fmt"
	"io"

	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/machine"
	"phasemon/internal/memhier"
	"phasemon/internal/phase"
	"phasemon/internal/thermal"
	"phasemon/internal/workload"
)

// Extensions returns experiments beyond the paper's figures: the
// additional management applications the paper names (thermal
// management, power bounding), the duration-predictor baseline from
// the related-work lineage, multiprogrammed workloads, and ablations
// over the GPHT's design parameters.
func Extensions() []Runner {
	base := []Runner{
		{"ext-dtm", "Dynamic thermal management guided by phase prediction", runExtDTM},
		{"ext-powercap", "Bounding power consumption with phase-derived caps", runExtPowerCap},
		{"ext-duration", "Run-length/duration predictor vs GPHT", runExtDuration},
		{"ext-multiprogram", "Phase prediction under multiprogrammed interleaving", runExtMultiprogram},
		{"ext-locality", "Working-set-derived phases through the memory hierarchy", runExtLocality},
		{"ablation-depth", "GPHR depth sweep on applu", runAblationDepth},
		{"ablation-granularity", "Sampling-granularity vs handler-overhead sweep", runAblationGranularity},
	}
	return append(base, analysisExtensions()...)
}

// LookupAny searches both the paper registry and the extensions.
func LookupAny(name string) (Runner, error) {
	if r, err := Lookup(name); err == nil {
		return r, nil
	}
	for _, r := range Extensions() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// --- DTM -------------------------------------------------------------

func runExtDTM(o Options, w io.Writer) error {
	o = o.withDefaults()
	if o.Intervals == 0 {
		o.Intervals = 800
	}
	tr, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		return err
	}
	prof, err := workload.ByName("crafty_in")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "limit[C]   peak[C]  perf.degradation   (crafty_in, CPU-bound)")
	gen := generator(prof, o)
	baseTh, err := thermal.New(thermal.DefaultConfig())
	if err != nil {
		return err
	}
	base, err := governor.Run(gen, governor.Unmanaged(), governor.Config{Machine: machine.Config{Thermal: baseTh}})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s  %7.1f  %16s\n", "none", baseTh.PeakC(), pct(0))
	for _, limit := range []float64{55, 50, 45} {
		th, err := thermal.New(thermal.DefaultConfig())
		if err != nil {
			return err
		}
		r, err := governor.Run(gen, governor.Proactive(8, 128), governor.Config{
			Actuator: &governor.ThermalThrottle{Translation: tr, LimitC: limit},
			Machine:  machine.Config{Thermal: th},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8.0f  %7.1f  %16s\n", limit, th.PeakC(), pct(governor.PerformanceDegradation(base, r)))
	}
	return nil
}

// --- Power capping ---------------------------------------------------

func runExtPowerCap(o Options, w io.Writer) error {
	o = o.withDefaults()
	if o.Intervals == 0 {
		o.Intervals = 600
	}
	est := governor.DefaultPowerCapEstimator(model(), defaultPowerModel(), 1.5)
	ladder := dvfs.PentiumM()
	tab := phase.Default()
	fmt.Fprintln(w, "benchmark     cap[W]  avg power[W]  perf.degradation")
	for _, name := range []string{"crafty_in", "applu_in"} {
		prof, err := workload.ByName(name)
		if err != nil {
			return err
		}
		gen := generator(prof, o)
		base, err := governor.Run(gen, governor.Unmanaged(), governor.Config{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s  %6s  %12.2f  %16s\n", name, "none",
			base.Run.EnergyJ/base.Run.TimeS, pct(0))
		for _, capW := range []float64{8, 6, 4} {
			tr, err := governor.DerivePowerCap(ladder, tab, est, capW)
			if err != nil {
				return err
			}
			r, err := governor.Run(gen, governor.Proactive(8, 128), governor.Config{Translation: tr})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s  %6.0f  %12.2f  %16s\n", name, capW,
				r.Run.EnergyJ/r.Run.TimeS, pct(governor.PerformanceDegradation(base, r)))
		}
	}
	return nil
}

// --- Duration predictor ----------------------------------------------

func runExtDuration(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "benchmark           LastValue   Duration   GPHT_8_128")
	for _, name := range []string{"wupwise_ref", "ammp_in", "apsi_ref", "mgrid_in", "applu_in", "equake_in"} {
		prof, err := workload.ByName(name)
		if err != nil {
			return err
		}
		obs, err := observations(prof, o)
		if err != nil {
			return err
		}
		dur, err := core.NewDurationPredictor(6, 0)
		if err != nil {
			return err
		}
		gpht, err := core.NewGPHT(core.DefaultGPHTConfig())
		if err != nil {
			return err
		}
		accs := make([]float64, 3)
		for i, p := range []core.Predictor{core.NewLastValue(), dur, gpht} {
			t, err := core.Evaluate(p, obs)
			if err != nil {
				return err
			}
			if accs[i], err = t.Accuracy(); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%-18s  %s  %s  %s\n", name, pct(accs[0]), pct(accs[1]), pct(accs[2]))
	}
	return nil
}

// --- Multiprogramming -------------------------------------------------

func runExtMultiprogram(o Options, w io.Writer) error {
	o = o.withDefaults()
	if o.Intervals == 0 {
		o.Intervals = 1000
	}
	pa, err := workload.ByName("crafty_in")
	if err != nil {
		return err
	}
	pb, err := workload.ByName("swim_in")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "quantum   LastValue acc   GPHT acc   GPHT EDP improvement")
	for _, quantum := range []int{2, 5, 10} {
		gen, err := workload.Interleave(
			generator(pa, o),
			generator(pb, o),
			quantum,
		)
		if err != nil {
			return err
		}
		res, err := governor.Compare(gen,
			[]governor.Policy{governor.Unmanaged(), governor.Reactive(), governor.Proactive(8, 128)},
			governor.Config{})
		if err != nil {
			return err
		}
		lvAcc, err := res["LastValue"].Accuracy.Accuracy()
		if err != nil {
			return err
		}
		gpAcc, err := res["GPHT_8_128"].Accuracy.Accuracy()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%7d  %s  %s  %s\n", quantum, pct(lvAcc), pct(gpAcc),
			pct(governor.EDPImprovement(res["Baseline"], res["GPHT_8_128"])))
	}
	return nil
}

// --- Locality-derived phases ------------------------------------------

func runExtLocality(o Options, w io.Writer) error {
	o = o.withDefaults()
	if o.Intervals == 0 {
		o.Intervals = 600
	}
	hier := memhier.Default()
	sections := []workload.LocalityPhase{
		{Profile: memhier.AccessProfile{AccessesPerUop: 0.35, WorkingSetBytes: 24 << 10, SpatialRun: 2}, Intervals: 6, CoreUPC: 1.5},
		{Profile: memhier.AccessProfile{AccessesPerUop: 0.35, WorkingSetBytes: 1200 << 10, ReuseSkew: 0.85}, Intervals: 3, CoreUPC: 1.0},
		{Profile: memhier.AccessProfile{AccessesPerUop: 0.35, WorkingSetBytes: 64 << 20, SpatialRun: 4}, Intervals: 3, CoreUPC: 0.8},
	}
	fmt.Fprintln(w, "section working sets: 24 KB (L1-resident), 1.2 MB (L2 knee), 64 MB (streaming)")
	for i, sec := range sections {
		mem, err := hier.MemPerUop(sec.Profile)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  section %d: Mem/Uop %.4f -> phase %s\n", i,
			mem, phase.Default().Classify(phase.Sample{MemPerUop: mem}))
	}
	gen, err := workload.FromLocality("ws_program", hier, sections, granularityUops, o.Intervals)
	if err != nil {
		return err
	}
	res, err := governor.Compare(gen,
		[]governor.Policy{governor.Unmanaged(), governor.Proactive(8, 128)}, governor.Config{})
	if err != nil {
		return err
	}
	acc, err := res["GPHT_8_128"].Accuracy.Accuracy()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "GPHT accuracy %s, EDP improvement %s, degradation %s\n",
		pct(acc),
		pct(governor.EDPImprovement(res["Baseline"], res["GPHT_8_128"])),
		pct(governor.PerformanceDegradation(res["Baseline"], res["GPHT_8_128"])))
	return nil
}

// --- Ablations ---------------------------------------------------------

func runAblationDepth(o Options, w io.Writer) error {
	o = o.withDefaults()
	prof, err := workload.ByName("applu_in")
	if err != nil {
		return err
	}
	obs, err := observations(prof, o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "GPHR depth   accuracy   (applu_in, 128-entry PHT)")
	for _, depth := range []int{1, 2, 4, 8, 12, 16} {
		g, err := core.NewGPHT(core.GPHTConfig{GPHRDepth: depth, PHTEntries: 128, NumPhases: 6})
		if err != nil {
			return err
		}
		t, err := core.Evaluate(g, obs)
		if err != nil {
			return err
		}
		a, err := t.Accuracy()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d  %s\n", depth, pct(a))
	}
	return nil
}

func runAblationGranularity(o Options, w io.Writer) error {
	o = o.withDefaults()
	if o.Intervals == 0 {
		o.Intervals = 300
	}
	prof, err := workload.ByName("applu_in")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "granularity[uops]   handler overhead   accuracy   EDP improvement   (applu_in, GPHT_8_128)")
	for _, gran := range []uint64{10_000_000, 50_000_000, 100_000_000, 500_000_000} {
		params := o.params()
		params.GranularityUops = float64(gran)
		gen := o.Cache.traces.Get(prof, params).Generator()
		cfg := governor.Config{GranularityUops: gran}
		base, err := governor.Run(gen, governor.Unmanaged(), cfg)
		if err != nil {
			return err
		}
		r, err := governor.Run(gen, governor.Proactive(8, 128), cfg)
		if err != nil {
			return err
		}
		acc, err := r.Accuracy.Accuracy()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%17d   %13.5f%%   %s   %15s\n",
			gran, r.OverheadFraction*100, pct(acc), pct(governor.EDPImprovement(base, r)))
	}
	return nil
}
