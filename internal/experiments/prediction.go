package experiments

import (
	"fmt"
	"io"
	"math"

	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/fleet"
	"phasemon/internal/phase"
	"phasemon/internal/stats"
	"phasemon/internal/workload"
)

// --- Table 1 -------------------------------------------------------

func runTable1(_ Options, w io.Writer) error {
	fmt.Fprintln(w, "Mem/Uop         Phase #")
	fmt.Fprint(w, phase.Default().Describe())
	return nil
}

// --- Table 2 -------------------------------------------------------

func runTable2(_ Options, w io.Writer) error {
	tr, err := dvfs.Identity(dvfs.PentiumM(), phase.Default().NumPhases())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Mem/Uop         Phase #  DVFS Setting")
	fmt.Fprint(w, tr.Describe(phase.Default()))
	return nil
}

// --- Figure 2 ------------------------------------------------------

// Fig2Point is one interval of the applu trace.
type Fig2Point struct {
	Index     int
	MemPerUop float64
	Actual    phase.ID
	LastValue phase.ID
	GPHT      phase.ID
}

// Figure2 reproduces the applu prediction trace: per-interval actual
// phases with last-value and GPHT(8, 1024) predictions. Window selects
// a contiguous region after warm-up (the paper plots cycles 28–32B).
func Figure2(o Options, warmup, window int) ([]Fig2Point, error) {
	o = o.withDefaults()
	p, err := workload.ByName("applu_in")
	if err != nil {
		return nil, err
	}
	if o.Intervals == 0 {
		o.Intervals = warmup + window
	}
	if o.Intervals < warmup+window {
		return nil, fmt.Errorf("experiments: fig2 needs at least %d intervals, have %d", warmup+window, o.Intervals)
	}
	obs, err := observations(p, o)
	if err != nil {
		return nil, err
	}
	lv := core.NewLastValue()
	gpht, err := core.NewGPHT(core.GPHTConfig{GPHRDepth: 8, PHTEntries: 1024, NumPhases: 6})
	if err != nil {
		return nil, err
	}
	out := make([]Fig2Point, 0, window)
	predLV, predG := phase.None, phase.None
	for i, ob := range obs {
		if i >= warmup && i < warmup+window {
			out = append(out, Fig2Point{
				Index:     i,
				MemPerUop: ob.Sample.MemPerUop,
				Actual:    ob.Phase,
				LastValue: predLV,
				GPHT:      predG,
			})
		}
		predLV = lv.Observe(ob)
		predG = gpht.Observe(ob)
	}
	return out, nil
}

func runFigure2(o Options, w io.Writer) error {
	warmup, window := 1000, 120
	if o.Intervals > 0 && o.Intervals < warmup+window {
		// Short runs (tests, quick mode): shrink the window and use
		// whatever warm-up the run affords.
		if window > o.Intervals {
			window = o.Intervals
		}
		warmup = o.Intervals - window
	}
	pts, err := Figure2(o, warmup, window)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "interval  mem/uop   actual  lastvalue  gpht_8_1024")
	lvWrong, gWrong := 0, 0
	for _, p := range pts {
		mark := func(pred phase.ID) string {
			if pred == p.Actual {
				return " "
			}
			return "x"
		}
		fmt.Fprintf(w, "%8d  %7.4f   %-6s  %-6s %s  %-6s %s\n",
			p.Index, p.MemPerUop, phaseLabel(p.Actual),
			phaseLabel(p.LastValue), mark(p.LastValue),
			phaseLabel(p.GPHT), mark(p.GPHT))
		if p.LastValue != p.Actual {
			lvWrong++
		}
		if p.GPHT != p.Actual {
			gWrong++
		}
	}
	fmt.Fprintf(w, "window mispredictions: last value %d/%d, GPHT %d/%d\n",
		lvWrong, len(pts), gWrong, len(pts))
	return nil
}

// --- Figure 3 ------------------------------------------------------

// Fig3Point characterizes one benchmark in the stability × savings
// plane.
type Fig3Point struct {
	Name string
	// SavingsPotential is the average Mem/Uop (the x axis).
	SavingsPotential float64
	// Variation is the fraction of >0.005 sample-to-sample changes
	// (the y axis, 0..1).
	Variation float64
	// Quadrant is the measured categorization.
	Quadrant stats.Quadrant
}

// Figure3 computes the benchmark-category scatter. Benchmarks are
// evaluated o.Workers at a time; each result depends only on its own
// seeded generator, so the output is deterministic.
func Figure3(o Options) ([]Fig3Point, error) {
	o = o.withDefaults()
	return fleet.Map(o.Workers, workload.All(), func(p *workload.Profile) (Fig3Point, error) {
		gen := p.Generator(o.params())
		mem := workload.MemSeries(workload.Collect(gen, 0))
		avg := stats.Mean(mem)
		vari := stats.Variation(mem, 0.005)
		return Fig3Point{
			Name:             p.Name,
			SavingsPotential: avg,
			Variation:        vari,
			Quadrant:         stats.Classify(avg, vari, stats.DefaultSavingsSplit, stats.DefaultVariationSplit),
		}, nil
	})
}

func runFigure3(o Options, w io.Writer) error {
	pts, err := Figure3(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "benchmark           savings-potential  variation   quadrant")
	for _, p := range pts {
		fmt.Fprintf(w, "%-18s  %17.4f  %s   %s\n", p.Name, p.SavingsPotential, pct(p.Variation), p.Quadrant)
	}
	return nil
}

// --- Figure 4 ------------------------------------------------------

// Fig4Row is one benchmark's accuracy under every predictor.
type Fig4Row struct {
	Name string
	// Accuracy maps predictor name to prediction accuracy in 0..1.
	Accuracy map[string]float64
}

// Fig4Predictors lists the predictor names of the paper's Figure 4 in
// legend order.
var Fig4Predictors = []string{
	"LastValue", "FixWindow_8", "FixWindow_128",
	"VarWindow_128_0.005", "VarWindow_128_0.030", "GPHT_8_1024",
}

// Figure4 evaluates the six predictors over every benchmark. Rows are
// sorted by decreasing last-value accuracy, like the paper's x axis.
func Figure4(o Options) ([]Fig4Row, error) {
	o = o.withDefaults()
	out, err := fleet.Map(o.Workers, workload.All(), func(p *workload.Profile) (Fig4Row, error) {
		obs, err := observations(p, o)
		if err != nil {
			return Fig4Row{}, err
		}
		preds, err := core.PaperPredictors(phase.Default())
		if err != nil {
			return Fig4Row{}, err
		}
		tallies, err := core.EvaluateAll(preds, obs)
		if err != nil {
			return Fig4Row{}, err
		}
		row := Fig4Row{Name: p.Name, Accuracy: map[string]float64{}}
		for name, t := range tallies {
			a, err := t.Accuracy()
			if err != nil {
				return Fig4Row{}, err
			}
			row.Accuracy[name] = a
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	sortRowsByLastValue(out)
	return out, nil
}

func sortRowsByLastValue(rows []Fig4Row) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].Accuracy["LastValue"] > rows[j-1].Accuracy["LastValue"]; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func runFigure4(o Options, w io.Writer) error {
	rows, err := Figure4(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s", "benchmark")
	for _, n := range Fig4Predictors {
		fmt.Fprintf(w, " %19s", n)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s", r.Name)
		for _, n := range Fig4Predictors {
			fmt.Fprintf(w, " %19s", pct(r.Accuracy[n]))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// --- Figure 5 ------------------------------------------------------

// Fig5Sizes are the PHT capacities the paper sweeps.
var Fig5Sizes = []int{1024, 128, 64, 1}

// Fig5Row is one benchmark's GPHT accuracy per PHT size, plus the
// last-value reference.
type Fig5Row struct {
	Name      string
	LastValue float64
	// BySize maps PHT entry count to accuracy.
	BySize map[int]float64
}

// Figure5 sweeps the PHT capacity over the paper's 18 least-stable
// benchmarks.
func Figure5(o Options) ([]Fig5Row, error) {
	o = o.withDefaults()
	return fleet.Map(o.Workers, workload.Figure5Set(), func(p *workload.Profile) (Fig5Row, error) {
		obs, err := observations(p, o)
		if err != nil {
			return Fig5Row{}, err
		}
		row := Fig5Row{Name: p.Name, BySize: map[int]float64{}}
		lvTally, err := core.Evaluate(core.NewLastValue(), obs)
		if err != nil {
			return Fig5Row{}, err
		}
		if row.LastValue, err = lvTally.Accuracy(); err != nil {
			return Fig5Row{}, err
		}
		for _, size := range Fig5Sizes {
			g, err := core.NewGPHT(core.GPHTConfig{GPHRDepth: 8, PHTEntries: size, NumPhases: 6})
			if err != nil {
				return Fig5Row{}, err
			}
			t, err := core.Evaluate(g, obs)
			if err != nil {
				return Fig5Row{}, err
			}
			if row.BySize[size], err = t.Accuracy(); err != nil {
				return Fig5Row{}, err
			}
		}
		return row, nil
	})
}

func runFigure5(o Options, w io.Writer) error {
	rows, err := Figure5(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %10s", "benchmark", "LastValue")
	for _, s := range Fig5Sizes {
		fmt.Fprintf(w, "  PHT:%-5d", s)
	}
	fmt.Fprintln(w, " (GPHR depth 8)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10s", r.Name, pct(r.LastValue))
		for _, s := range Fig5Sizes {
			fmt.Fprintf(w, "  %s  ", pct(r.BySize[s]))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// meanAccuracyDrop reports the average accuracy difference between two
// PHT sizes across rows — used by tests to verify the Figure 5 shape.
func meanAccuracyDrop(rows []Fig5Row, from, to int) float64 {
	var sum float64
	for _, r := range rows {
		sum += r.BySize[from] - r.BySize[to]
	}
	if len(rows) == 0 {
		return math.NaN()
	}
	return sum / float64(len(rows))
}
