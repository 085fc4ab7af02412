package experiments

import (
	"fmt"
	"io"

	"phasemon/internal/analysis"
	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/workload"
)

// analysisExtensions returns the experiments built on the analysis
// package; they are appended to Extensions().
func analysisExtensions() []Runner {
	return []Runner{
		{"ext-predictability", "GPHT accuracy vs the order-8 predictability ceiling", runExtPredictability},
		{"ext-learned-phases", "Data-driven (quantile) phase definitions vs Table 1", runExtLearnedPhases},
		{"ext-stream-stats", "Phase-stream structure: entropy, runs, transitions", runExtStreamStats},
		{"ext-warmup", "Predictor learning curves (accuracy per window)", runExtWarmup},
		{"ext-oracle", "Oracle headroom: how much better could prediction get", runExtOracle},
	}
}

func runExtPredictability(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "benchmark           LastValue   GPHT_8_128   order-8 ceiling   captured")
	for _, p := range workload.VariableSet() {
		obs, err := observations(p, o)
		if err != nil {
			return err
		}
		stream := make([]phase.ID, len(obs))
		for i, ob := range obs {
			stream[i] = ob.Phase
		}
		bound, err := analysis.PredictabilityBound(stream, 6, 8)
		if err != nil {
			return err
		}
		lvT, err := core.Evaluate(core.NewLastValue(), obs)
		if err != nil {
			return err
		}
		lv, err := lvT.Accuracy()
		if err != nil {
			return err
		}
		g := core.MustNewGPHT(core.DefaultGPHTConfig())
		gT, err := core.Evaluate(g, obs)
		if err != nil {
			return err
		}
		acc, err := gT.Accuracy()
		if err != nil {
			return err
		}
		// "captured" is how much of the headroom between last-value
		// and the ceiling the GPHT realizes.
		captured := 1.0
		if bound > lv {
			captured = (acc - lv) / (bound - lv)
		}
		fmt.Fprintf(w, "%-18s  %s   %s   %s  %s\n",
			p.Name, pct(lv), pct(acc), pct(bound), pct(captured))
	}
	return nil
}

func runExtLearnedPhases(o Options, w io.Writer) error {
	o = o.withDefaults()
	if o.Intervals == 0 {
		o.Intervals = 1200
	}
	prof, err := workload.ByName("applu_in")
	if err != nil {
		return err
	}
	gen := generator(prof, o)
	mems := workload.MemSeries(workload.Collect(gen, 0))
	learned, err := analysis.QuantileTable("learned6", mems, 6)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "learned equal-occupancy boundaries (applu_in):")
	fmt.Fprint(w, learned.Describe())
	fmt.Fprintln(w, "\npaper Table 1 boundaries:")
	fmt.Fprint(w, phase.Default().Describe())

	fmt.Fprintln(w, "\nGPHT-managed applu under each definition:")
	fmt.Fprintln(w, "definition   EDP improvement   perf degradation   accuracy")
	for _, tc := range []struct {
		name string
		tab  *phase.Table
	}{
		{"table1", phase.Default()},
		{"learned", learned},
	} {
		tr, err := dvfs.Identity(dvfs.PentiumM(), tc.tab.NumPhases())
		if err != nil {
			return err
		}
		cfg := governor.Config{Classifier: tc.tab, Translation: tr}
		res, err := governor.Compare(gen,
			[]governor.Policy{governor.Unmanaged(), governor.Proactive(8, 128)}, cfg)
		if err != nil {
			return err
		}
		base, man := res["Baseline"], res["GPHT_8_128"]
		acc, err := man.Accuracy.Accuracy()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s   %15s   %16s   %s\n", tc.name,
			pct(governor.EDPImprovement(base, man)),
			pct(governor.PerformanceDegradation(base, man)),
			pct(acc))
	}
	return nil
}

func runExtStreamStats(o Options, w io.Writer) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "benchmark           entropy[bits]  self-loop  longest-run  phases-visited")
	for _, name := range []string{"crafty_in", "swim_in", "mcf_inp", "mgrid_in", "applu_in", "equake_in"} {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		obs, err := observations(p, o)
		if err != nil {
			return err
		}
		stream := make([]phase.ID, len(obs))
		for i, ob := range obs {
			stream[i] = ob.Phase
		}
		ent, err := analysis.Entropy(stream, 6)
		if err != nil {
			return err
		}
		tr, err := analysis.NewTransitions(stream, 6)
		if err != nil {
			return err
		}
		runs, err := analysis.Runs(stream, 6)
		if err != nil {
			return err
		}
		longest, visited := 0, 0
		for _, r := range runs {
			if r.MaxLen > longest {
				longest = r.MaxLen
			}
			if r.Count > 0 {
				visited++
			}
		}
		fmt.Fprintf(w, "%-18s  %13.2f  %s  %11d  %14d\n",
			name, ent, pct(tr.SelfLoopFraction()), longest, visited)
	}
	return nil
}

func runExtWarmup(o Options, w io.Writer) error {
	o = o.withDefaults()
	if o.Intervals == 0 {
		o.Intervals = 2000
	}
	prof, err := workload.ByName("applu_in")
	if err != nil {
		return err
	}
	obs, err := observations(prof, o)
	if err != nil {
		return err
	}
	const window = 100
	fmt.Fprintf(w, "accuracy per %d-interval window (applu_in):\n", window)
	fmt.Fprintf(w, "%-12s", "window")
	cols := 8
	for i := 0; i < cols; i++ {
		fmt.Fprintf(w, " %6d", i)
	}
	fmt.Fprintln(w, "  steady")
	dur, err := core.NewDurationPredictor(6, 0)
	if err != nil {
		return err
	}
	preds := []core.Predictor{
		core.NewLastValue(),
		dur,
		core.MustNewGPHT(core.DefaultGPHTConfig()),
	}
	for _, p := range preds {
		series, err := core.AccuracySeries(p, obs, window)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s", p.Name())
		for i := 0; i < cols && i < len(series); i++ {
			fmt.Fprintf(w, " %5.0f%%", series[i]*100)
		}
		fmt.Fprintf(w, "  %5.0f%%\n", series[len(series)-1]*100)
	}
	fmt.Fprintln(w, "\nthe GPHT pays a short warm-up (learning the pattern table), then")
	fmt.Fprintln(w, "holds near its ceiling; the statistical predictors start at their")
	fmt.Fprintln(w, "steady accuracy but never improve.")
	return nil
}

func runExtOracle(o Options, w io.Writer) error {
	o = o.withDefaults()
	if o.Intervals == 0 {
		o.Intervals = 1200
	}
	fmt.Fprintln(w, "benchmark           EDP improvement:   GPHT    Oracle   headroom")
	for _, p := range workload.VariableSet() {
		gen := generator(p, o)
		future, err := governor.FuturePhases(gen, nil, machine.New(machine.Config{}))
		if err != nil {
			return err
		}
		res, err := governor.Compare(gen, []governor.Policy{
			governor.Unmanaged(), governor.Proactive(8, 128), governor.Oracle(future),
		}, governor.Config{})
		if err != nil {
			return err
		}
		base := res["Baseline"]
		gp := governor.EDPImprovement(base, res["GPHT_8_128"])
		or := governor.EDPImprovement(base, res["Oracle"])
		fmt.Fprintf(w, "%-18s                    %s  %s  %s\n",
			p.Name, pct(gp), pct(or), pct(or-gp))
	}
	fmt.Fprintln(w, "\nthe oracle knows every future phase; its margin over the GPHT is")
	fmt.Fprintln(w, "the total value still on the table for better prediction.")
	return nil
}
