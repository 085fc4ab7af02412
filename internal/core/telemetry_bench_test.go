package core

import (
	"testing"

	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
)

// benchSamples is a phase-varying input cycle so the benchmarks
// exercise transitions, verdicts, and histogram updates — the worst
// case for instrumentation — rather than a steady state.
func benchSamples() []phase.Sample {
	out := make([]phase.Sample, 64)
	for i := range out {
		out[i] = phase.Sample{MemPerUop: float64(i%7) * 0.006, UPC: 1.2}
	}
	return out
}

func benchmarkStep(b *testing.B, hub *telemetry.Hub) {
	cls := phase.Default()
	g := MustNewGPHT(GPHTConfig{GPHRDepth: 8, PHTEntries: 128, NumPhases: cls.NumPhases()})
	mon, err := NewMonitor(cls, g)
	if err != nil {
		b.Fatal(err)
	}
	step := mon.Step
	if hub != nil {
		step = observedStep(mon, hub)
	}
	samples := benchSamples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(samples[i%len(samples)])
	}
}

// BenchmarkMonitorStep is the uninstrumented baseline.
func BenchmarkMonitorStep(b *testing.B) { benchmarkStep(b, nil) }

// BenchmarkTelemetryStep is the guard for the instrumentation budget:
// each step is a bare Step folded into a batch, one hub clock reading
// and one Publish, an observed stepping loop's per-interval shape. Compare its
// ns/op against BenchmarkMonitorStep; targets (documented here and in
// DESIGN.md, not enforced):
//
//   - absolute cost: ~100 ns/step worst case (this input transitions
//     phases almost every step, so every step journals a verdict and
//     a transition) — ~0.2% of the kernel module's 50 µs handler
//     budget and ~10⁻⁶ of a real 100M-uop interval;
//   - relative cost: within ~10% of the *deployment-realistic*
//     per-interval pipeline, measured by BenchmarkPMIPipeline vs
//     BenchmarkPMIPipelineTelemetry in package kernelsim. The raw
//     Step here runs in ~30 ns, so no live instrumentation (even one
//     atomic add) could stay within 10% of it;
//   - a nil hub (the default) must cost a single branch: compare
//     BenchmarkMonitorStep against the seed's numbers.
func BenchmarkTelemetryStep(b *testing.B) {
	benchmarkStep(b, telemetry.NewHub(phase.Default().NumPhases()))
}
