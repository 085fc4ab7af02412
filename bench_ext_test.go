// Benchmarks for the systems beyond the paper's figures: the
// extension applications (DTM, power capping), the analysis layer, and
// the measurement pipeline.
package phasemon_test

import (
	"testing"

	"phasemon/internal/analysis"
	"phasemon/internal/cpusim"
	"phasemon/internal/daq"
	"phasemon/internal/dvfs"
	"phasemon/internal/governor"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/power"
	"phasemon/internal/thermal"
	"phasemon/internal/workload"
)

func BenchmarkExtThermalThrottle(b *testing.B) {
	tr, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.ByName("crafty_in")
	if err != nil {
		b.Fatal(err)
	}
	gen := p.Generator(workload.Params{Seed: 1, Intervals: 300})
	var peak float64
	for i := 0; i < b.N; i++ {
		th, err := thermal.New(thermal.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		_, err = governor.Run(gen, governor.Proactive(8, 128), governor.Config{
			Actuator: &governor.ThermalThrottle{Translation: tr, LimitC: 50},
			Machine:  machine.Config{Thermal: th},
		})
		if err != nil {
			b.Fatal(err)
		}
		peak = th.PeakC()
	}
	b.ReportMetric(peak, "peak-temp-C")
}

func BenchmarkExtPowerCap(b *testing.B) {
	est := governor.DefaultPowerCapEstimator(
		cpusim.New(cpusim.DefaultConfig()), power.Default(), 1.5)
	tr, err := governor.DerivePowerCap(dvfs.PentiumM(), phase.Default(), est, 6)
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.ByName("crafty_in")
	if err != nil {
		b.Fatal(err)
	}
	gen := p.Generator(workload.Params{Seed: 1, Intervals: 300})
	var avg float64
	for i := 0; i < b.N; i++ {
		r, err := governor.Run(gen, governor.Proactive(8, 128), governor.Config{Translation: tr})
		if err != nil {
			b.Fatal(err)
		}
		avg = r.Run.EnergyJ / r.Run.TimeS
	}
	b.ReportMetric(avg, "avg-power-W")
}

func BenchmarkPredictabilityBound(b *testing.B) {
	obs := appluObservations(b, 3000)
	stream := make([]phase.ID, len(obs))
	for i, o := range obs {
		stream[i] = o.Phase
	}
	b.ResetTimer()
	var bound float64
	for i := 0; i < b.N; i++ {
		v, err := analysis.PredictabilityBound(stream, 6, 8)
		if err != nil {
			b.Fatal(err)
		}
		bound = v
	}
	b.ReportMetric(bound*100, "ceiling-pct")
}

func BenchmarkKMeans1D(b *testing.B) {
	p, err := workload.ByName("applu_in")
	if err != nil {
		b.Fatal(err)
	}
	mems := workload.MemSeries(workload.Collect(p.Generator(workload.Params{Seed: 1, Intervals: 3000}), 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := analysis.KMeans1D(mems, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDAQPipeline(b *testing.B) {
	// Build one waveform, then measure the acquire+analyze pipeline.
	wave := daq.NewWaveform()
	m := machine.New(machine.Config{Recorder: wave})
	if err := m.PMCs().Configure(0, 1, true); err != nil {
		b.Fatal(err)
	}
	if err := m.PMCs().Arm(0, 100_000_000); err != nil {
		b.Fatal(err)
	}
	m.PMCs().Start()
	p, err := workload.ByName("applu_in")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(p.Generator(workload.Params{Seed: 1, Intervals: 20}), nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := daq.Acquire(wave, daq.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := daq.Analyze(samples, daq.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
