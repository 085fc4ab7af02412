package kernelsim

import (
	"testing"

	"phasemon/internal/core"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
	"phasemon/internal/workload"
)

// benchmarkPipeline measures one fully-simulated sampling interval —
// execution model, power integration, PMI delivery, classification,
// GPHT prediction, DVFS actuation — with and without a telemetry hub
// attached. Compare BenchmarkPMIPipeline against
// BenchmarkPMIPipelineTelemetry: the delta is the full per-interval
// instrumentation cost — the interval's verdict, transition, DVFS
// change and PMI sample recorded into the handler's StepBatch, stamped
// with the machine's simulated time, and a share of the Publish every
// 32 intervals and of the handler-cost histogram.
// Targets (documented, not enforced): the absolute cost must stay
// ~2-3 orders of magnitude under the paper's 50 µs handler budget,
// and negligible against a real handler invocation — a real 100M-uop
// interval takes ~50 ms. Against the *simulated* interval (a few
// hundred ns of pure Go) the same cost reads as a large fraction;
// that ratio only measures how cheap the simulator is, not what live
// monitoring would pay.
func benchmarkPipeline(b *testing.B, hub *telemetry.Hub) {
	cls := phase.Default()
	prof, err := workload.ByName("applu_in")
	if err != nil {
		b.Fatal(err)
	}
	gen := prof.Generator(workload.Params{Seed: 1, Intervals: 100})
	b.ReportAllocs()
	b.ResetTimer()
	intervals := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pred, err := core.NewGPHT(core.GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: cls.NumPhases()})
		if err != nil {
			b.Fatal(err)
		}
		mon, err := core.NewMonitor(cls, pred)
		if err != nil {
			b.Fatal(err)
		}
		mod, err := NewModule(Config{Monitor: mon, Telemetry: hub})
		if err != nil {
			b.Fatal(err)
		}
		m := machine.New(machine.Config{})
		if err := mod.Load(m); err != nil {
			b.Fatal(err)
		}
		gen.Reset()
		b.StartTimer()
		if _, err := m.Run(gen, mod); err != nil {
			b.Fatal(err)
		}
		mod.Unload(m)
		intervals += mod.Samples()
	}
	b.StopTimer()
	if intervals == 0 {
		b.Fatal("no intervals sampled")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(intervals), "ns/interval")
}

func BenchmarkPMIPipeline(b *testing.B) { benchmarkPipeline(b, nil) }

func BenchmarkPMIPipelineTelemetry(b *testing.B) {
	benchmarkPipeline(b, telemetry.NewHub(phase.Default().NumPhases()))
}
