// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations over the design choices called out in
// DESIGN.md. Each BenchmarkTableN/BenchmarkFigN target reruns the
// corresponding experiment end-to-end (at reduced run lengths so the
// full suite stays fast); key measured quantities are attached as
// custom benchmark metrics so `go test -bench` output doubles as a
// results table.
package phasemon_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"phasemon/internal/core"
	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/experiments"
	"phasemon/internal/governor"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/thermal"
	"phasemon/internal/workload"
)

// benchOpts keeps per-iteration work bounded; accuracy-style metrics
// are stable at this scale.
var benchOpts = experiments.Options{Intervals: 400, Seed: 1}

// --- Table 1 ---------------------------------------------------------

func BenchmarkTable1PhaseClassify(b *testing.B) {
	tab := phase.Default()
	samples := make([]phase.Sample, 1024)
	for i := range samples {
		samples[i] = phase.Sample{MemPerUop: float64(i%60) * 0.001}
	}
	b.ResetTimer()
	var sink phase.ID
	for i := 0; i < b.N; i++ {
		sink = tab.Classify(samples[i%len(samples)])
	}
	_ = sink
}

// --- Table 2 ---------------------------------------------------------

func BenchmarkTable2Translate(b *testing.B) {
	tr, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink dvfs.Setting
	for i := 0; i < b.N; i++ {
		sink = tr.Setting(phase.ID(1 + i%6))
	}
	_ = sink
}

// --- Figures ---------------------------------------------------------

func BenchmarkFig2AppluTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure2(experiments.Options{Intervals: 520, Seed: 1}, 400, 120)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			wrong := 0
			for _, p := range pts {
				if p.GPHT != p.Actual {
					wrong++
				}
			}
			b.ReportMetric(float64(wrong)/float64(len(pts)), "gpht-miss-frac")
		}
	}
}

func BenchmarkFig3Quadrants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure3(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(pts)), "benchmarks")
		}
	}
}

func BenchmarkFig4PredictorAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// Report the variable-set means of the two headline
			// predictors.
			var lv, g float64
			for _, r := range rows[len(rows)-6:] {
				lv += r.Accuracy["LastValue"]
				g += r.Accuracy["GPHT_8_1024"]
			}
			b.ReportMetric(lv/6*100, "lastvalue-acc-pct")
			b.ReportMetric(g/6*100, "gpht-acc-pct")
		}
	}
}

func BenchmarkFig5PHTSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var a128, a64 float64
			for _, r := range rows {
				a128 += r.BySize[128]
				a64 += r.BySize[64]
			}
			b.ReportMetric(a128/float64(len(rows))*100, "pht128-acc-pct")
			b.ReportMetric(a64/float64(len(rows))*100, "pht64-acc-pct")
		}
	}
}

func BenchmarkFig6ExplorationSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(res.Grid)), "grid-points")
			b.ReportMetric(float64(len(res.SPECPoints)), "spec-points")
		}
	}
}

func BenchmarkFig7DVFSInvariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// Report the worst-case UPC swing across frequencies.
			byTarget := map[workload.GridPoint][2]float64{}
			for _, r := range rows {
				cur := byTarget[r.Target]
				if cur[0] == 0 || r.UPC < cur[0] {
					cur[0] = r.UPC
				}
				if r.UPC > cur[1] {
					cur[1] = r.UPC
				}
				byTarget[r.Target] = cur
			}
			maxSwing := 0.0
			for _, mm := range byTarget {
				if s := (mm[1] - mm[0]) / mm[0]; s > maxSwing {
					maxSwing = s
				}
			}
			b.ReportMetric(maxSwing*100, "max-upc-swing-pct")
		}
	}
}

func BenchmarkFig10AppluManaged(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(governor.EDPImprovement(res.Baseline, res.Managed)*100, "edp-improvement-pct")
			b.ReportMetric(governor.PerformanceDegradation(res.Baseline, res.Managed)*100, "perf-degradation-pct")
		}
	}
}

func BenchmarkFig11AllBenchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure11(experiments.Options{Intervals: 200, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var edp float64
			for _, r := range rows {
				edp += r.NormalizedEDP
			}
			b.ReportMetric(edp/float64(len(rows))*100, "mean-norm-edp-pct")
		}
	}
}

func BenchmarkFig12ProactiveVsReactive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure12(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var lv, gp float64
			for _, r := range rows {
				lv += r.EDPImprovement["LastValue"]
				gp += r.EDPImprovement["GPHT"]
			}
			b.ReportMetric(lv/float64(len(rows))*100, "reactive-edp-pct")
			b.ReportMetric(gp/float64(len(rows))*100, "gpht-edp-pct")
		}
	}
}

func BenchmarkFig13BoundedDegradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure13(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			worst := 0.0
			for _, r := range rows {
				if r.Degradation > worst {
					worst = r.Degradation
				}
			}
			b.ReportMetric(worst*100, "worst-degradation-pct")
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := experiments.Headline(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(h.AppluMispredictionReduction, "applu-mispred-reduction-x")
			b.ReportMetric(h.AvgEDPImprovement*100, "avg-edp-improvement-pct")
		}
	}
}

// --- Microbenchmarks and ablations -----------------------------------

// BenchmarkGPHTObserve measures the predictor's per-sample cost — the
// quantity that must stay negligible inside a PMI handler.
func BenchmarkGPHTObserve(b *testing.B) {
	for _, entries := range []int{1, 64, 128, 1024} {
		b.Run(sizeName(entries), func(b *testing.B) {
			g := core.MustNewGPHT(core.GPHTConfig{GPHRDepth: 8, PHTEntries: entries, NumPhases: 6})
			obs := appluObservations(b, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Observe(obs[i%len(obs)])
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 1:
		return "pht1"
	case 64:
		return "pht64"
	case 128:
		return "pht128"
	default:
		return "pht1024"
	}
}

func appluObservations(b *testing.B, n int) []core.Observation {
	b.Helper()
	p, err := workload.ByName("applu_in")
	if err != nil {
		b.Fatal(err)
	}
	works := workload.Collect(p.Generator(workload.Params{Seed: 1, Intervals: n}), 0)
	obs, err := core.ObservationsFromWork(cpusim.New(cpusim.DefaultConfig()), works, phase.Default(), 1.5e9)
	if err != nil {
		b.Fatal(err)
	}
	return obs
}

// BenchmarkGovernorRun measures full managed-run simulation throughput
// (intervals per op reported as time; the suite's scalability knob).
// /paper is the paper's platform; /thermal runs the same workload with
// a die-temperature model attached, so leakage is scaled per interval;
// /hub is /paper observed by a telemetry hub, so the PMI handler also
// folds each interval, stamped in simulated time, and publishes after
// every 32nd.
func BenchmarkGovernorRun(b *testing.B) {
	p, err := workload.ByName("applu_in")
	if err != nil {
		b.Fatal(err)
	}
	gen := p.Generator(workload.Params{Seed: 1, Intervals: 200})
	b.Run("paper", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := governor.Run(gen, governor.Proactive(8, 128), governor.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hub", func(b *testing.B) {
		cfg := governor.Config{Telemetry: telemetry.NewHub(phase.Default().NumPhases())}
		for i := 0; i < b.N; i++ {
			if _, err := governor.Run(gen, governor.Proactive(8, 128), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("thermal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			th, err := thermal.New(thermal.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			cfg := governor.Config{Machine: machine.Config{Thermal: th}}
			if _, err := governor.Run(gen, governor.Proactive(8, 128), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGovernorReplay is GovernorRun/paper replayed over a machine
// table of the same 200-interval trace: what each tournament cell pays
// per replay. The records' storage is reused from run to run, as the
// fleet engine reuses it. /hub is /paper observed by a telemetry hub,
// so the replay folds and publishes as GovernorRun/hub's handler does —
// the pair to GovernorRun's /paper and /hub.
func BenchmarkGovernorReplay(b *testing.B) {
	p, err := workload.ByName("applu_in")
	if err != nil {
		b.Fatal(err)
	}
	gen := p.Generator(workload.Params{Seed: 1, Intervals: 200})
	tab, err := machine.NewTable(workload.Collect(gen, 0), 100_000_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  governor.Config
	}{
		{"paper", governor.Config{}},
		{"hub", governor.Config{Telemetry: telemetry.NewHub(phase.Default().NumPhases())}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var recs []governor.Record
			for i := 0; i < b.N; i++ {
				rp, err := governor.NewReplay(tab, governor.Proactive(8, 128), c.cfg, recs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rp.Run(context.Background(), tab.Len()); err != nil {
					b.Fatal(err)
				}
				recs = rp.Records()
			}
		})
	}
}

// BenchmarkGranularityAblation sweeps the sampling granularity: finer
// sampling raises handler-overhead fraction, the trade the paper's
// 100M-uop choice settles.
func BenchmarkGranularityAblation(b *testing.B) {
	for _, gran := range []uint64{10_000_000, 50_000_000, 100_000_000, 500_000_000} {
		b.Run(granName(gran), func(b *testing.B) {
			p, err := workload.ByName("applu_in")
			if err != nil {
				b.Fatal(err)
			}
			var overhead float64
			for i := 0; i < b.N; i++ {
				gen := p.Generator(workload.Params{
					Seed:            1,
					Intervals:       100,
					GranularityUops: float64(gran),
				})
				r, err := governor.Run(gen, governor.Proactive(8, 128),
					governor.Config{GranularityUops: gran})
				if err != nil {
					b.Fatal(err)
				}
				overhead = r.OverheadFraction
			}
			b.ReportMetric(overhead*1e6, "overhead-ppm")
		})
	}
}

func granName(g uint64) string {
	switch g {
	case 10_000_000:
		return "10M"
	case 50_000_000:
		return "50M"
	case 100_000_000:
		return "100M"
	default:
		return "500M"
	}
}

// BenchmarkHysteresisAblation compares the paper's direct PHT update
// against the 2-bit-style hysteresis extension on the disturbed applu
// pattern.
func BenchmarkHysteresisAblation(b *testing.B) {
	obs := appluObservations(b, 2000)
	for _, hyst := range []bool{false, true} {
		name := "direct"
		if hyst {
			name = "hysteresis"
		}
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				g := core.MustNewGPHT(core.GPHTConfig{
					GPHRDepth: 8, PHTEntries: 128, NumPhases: 6, Hysteresis: hyst,
				})
				t, err := core.Evaluate(g, obs)
				if err != nil {
					b.Fatal(err)
				}
				if acc, err = t.Accuracy(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc*100, "acc-pct")
		})
	}
}

// BenchmarkDepthAblation sweeps GPHR depth at fixed PHT capacity.
func BenchmarkDepthAblation(b *testing.B) {
	obs := appluObservations(b, 2000)
	for _, depth := range []int{1, 2, 4, 8, 16} {
		b.Run(depthName(depth), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				g := core.MustNewGPHT(core.GPHTConfig{GPHRDepth: depth, PHTEntries: 128, NumPhases: 6})
				t, err := core.Evaluate(g, obs)
				if err != nil {
					b.Fatal(err)
				}
				if acc, err = t.Accuracy(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc*100, "acc-pct")
		})
	}
}

func depthName(d int) string { return fmt.Sprintf("depth%d", d) }

// BenchmarkRegistryRender measures the cost of rendering every
// experiment report (the cmd/experiments hot path).
func BenchmarkRegistryRender(b *testing.B) {
	opts := experiments.Options{Intervals: 100, Seed: 1}
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Registry() {
			if err := r.Run(opts, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}
