package daq

import (
	"math"
	"testing"

	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/kernelsim"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{SamplePeriodS: 0, SenseOhm: 0.002},
		{SamplePeriodS: 40e-6, SenseOhm: 0},
		{SamplePeriodS: 40e-6, SenseOhm: 0.002, NoiseV: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWaveformRecording(t *testing.T) {
	w := NewWaveform()
	w.Record(machine.Span{T0: 0, Dur: 1, Watts: 10, Volts: 1.4})
	w.Record(machine.Span{T0: 1, Dur: 0, Watts: 5, Volts: 1.4}) // zero-length dropped
	w.Record(machine.Span{T0: 1, Dur: 0.5, Watts: 5, Volts: 1.4})
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
	if sp := w.Spans(); sp[1].T0 != 1 || sp[1].Dur != 0.5 {
		t.Errorf("second span = %+v", sp[1])
	}
}

func TestAcquireReconstructsPower(t *testing.T) {
	// A constant 10 W at 1.4 V for 10 ms, noiselessly sampled, must
	// reconstruct to 10 W at every sample.
	w := NewWaveform()
	w.Record(machine.Span{T0: 0, Dur: 0.01, Watts: 10, Volts: 1.4})
	cfg := DefaultConfig()
	cfg.NoiseV = 0
	samples, err := Acquire(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 250 { // 10ms / 40µs
		t.Fatalf("got %d samples, want 250", len(samples))
	}
	for i, s := range samples {
		if math.Abs(s.PowerW()-10) > 1e-9 {
			t.Fatalf("sample %d power = %v", i, s.PowerW())
		}
		if math.Abs(s.VCPU-1.4) > 1e-12 {
			t.Fatalf("sample %d VCPU = %v", i, s.VCPU)
		}
		// Branch currents are equal halves of P/V.
		want := 10 / 1.4 / 2
		if math.Abs(s.I1-want) > 1e-9 || math.Abs(s.I2-want) > 1e-9 {
			t.Fatalf("sample %d currents %v, %v, want %v", i, s.I1, s.I2, want)
		}
	}
}

func TestAcquireErrors(t *testing.T) {
	if _, err := Acquire(NewWaveform(), DefaultConfig()); err == nil {
		t.Error("empty waveform accepted")
	}
	w := NewWaveform()
	w.Record(machine.Span{T0: 0, Dur: 1e-9, Watts: 1, Volts: 1})
	// A waveform shorter than one sample period still yields the t=0
	// sample.
	samples, err := Acquire(w, DefaultConfig())
	if err != nil || len(samples) != 1 {
		t.Errorf("sub-sample waveform: %d samples, err %v", len(samples), err)
	}
	if _, err := Acquire(w, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestNoiseIsSmallAndZeroMean(t *testing.T) {
	w := NewWaveform()
	w.Record(machine.Span{T0: 0, Dur: 0.1, Watts: 8, Volts: 1.2})
	samples, err := Acquire(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range samples {
		sum += s.PowerW()
	}
	mean := sum / float64(len(samples))
	if math.Abs(mean-8)/8 > 0.01 {
		t.Errorf("mean reconstructed power %v deviates more than 1%% from 8 W", mean)
	}
}

func TestAnalyzeEmptyAndUnsorted(t *testing.T) {
	if _, err := Analyze(nil, DefaultConfig()); err == nil {
		t.Error("empty samples accepted")
	}
	ss := []Sample{{T: 1}, {T: 0}}
	if _, err := Analyze(ss, DefaultConfig()); err == nil {
		t.Error("unsorted samples accepted")
	}
	if _, err := Analyze(ss, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

// runInstrumented executes a managed applu run with the full
// measurement chain attached and returns the machine, module, and
// acquired samples.
func runInstrumented(t *testing.T, intervals int) (machine.RunResult, *kernelsim.Module, []Sample) {
	t.Helper()
	wave := NewWaveform()
	m := machine.New(machine.Config{Recorder: wave})
	gpht := core.MustNewGPHT(core.DefaultGPHTConfig())
	mon, err := core.NewMonitor(phase.Default(), gpht)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dvfs.Identity(dvfs.PentiumM(), 6)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := kernelsim.NewModule(kernelsim.Config{Monitor: mon, Translation: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.Load(m); err != nil {
		t.Fatal(err)
	}
	p, err := workload.ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(p.Generator(workload.Params{Seed: 1, Intervals: intervals}), mod)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := Acquire(wave, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res, mod, samples
}

func TestEndToEndDAQEnergyMatchesMachine(t *testing.T) {
	// The independent measurement path must agree with the machine's
	// analytic energy to within sampling + noise error.
	res, _, samples := runInstrumented(t, 40)
	rep, err := Analyze(samples, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(rep.TotalEnergyJ-res.EnergyJ) / res.EnergyJ; rel > 0.02 {
		t.Errorf("DAQ energy %v vs machine %v: relative error %v", rep.TotalEnergyJ, res.EnergyJ, rel)
	}
	if rel := math.Abs(rep.TotalDurS-res.TimeS) / res.TimeS; rel > 0.02 {
		t.Errorf("DAQ duration %v vs machine %v: relative error %v", rep.TotalDurS, res.TimeS, rel)
	}
	if rep.AvgPowerW <= 0 {
		t.Error("non-positive average power")
	}
}

func TestEndToEndPerPhaseAttribution(t *testing.T) {
	_, mod, samples := runInstrumented(t, 40)
	rep, err := Analyze(samples, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	klog := mod.ReadLog()
	// The logging machine should find one phase per kernel-log sample
	// (the trailing interval may be clipped by sampling quantization).
	if d := len(klog) - len(rep.Phases); d < 0 || d > 1 {
		t.Fatalf("DAQ found %d phases, kernel logged %d", len(rep.Phases), len(klog))
	}
	// Phase durations at 100M uops are on the order of 100 ms; each
	// must hold thousands of 40 µs samples.
	for i, ph := range rep.Phases {
		if ph.Samples < 500 {
			t.Fatalf("phase %d has only %d samples", i, ph.Samples)
		}
		if ph.AvgPowerW <= 0 || ph.AvgPowerW > 25 {
			t.Fatalf("phase %d: implausible power %v W", i, ph.AvgPowerW)
		}
	}
	// Handler time is recorded but tiny.
	if rep.HandlerDurS <= 0 {
		t.Error("no handler time observed")
	}
	if rep.HandlerDurS > 0.001*rep.TotalDurS {
		t.Errorf("handler time %v not invisible next to %v", rep.HandlerDurS, rep.TotalDurS)
	}
	// App time dominates.
	if rep.AppDurS < 0.99*rep.TotalDurS {
		t.Errorf("app time %v suspiciously small vs %v", rep.AppDurS, rep.TotalDurS)
	}
}

func TestPerPhasePowerTracksDVFSSetting(t *testing.T) {
	// Phases the governor ran at 600 MHz must measure much less power
	// than phases run at 1.5 GHz — the visible effect in Figure 10's
	// middle chart.
	_, mod, samples := runInstrumented(t, 60)
	rep, err := Analyze(samples, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	klog := mod.ReadLog()
	n := len(rep.Phases)
	if n > len(klog) {
		n = len(klog)
	}
	var fastSum, fastN, slowSum, slowN float64
	for i := 0; i < n; i++ {
		switch klog[i].Setting {
		case 0:
			fastSum += rep.Phases[i].AvgPowerW
			fastN++
		case 5:
			slowSum += rep.Phases[i].AvgPowerW
			slowN++
		}
	}
	if fastN == 0 || slowN == 0 {
		t.Skip("run did not exercise both extreme settings")
	}
	fast := fastSum / fastN
	slow := slowSum / slowN
	if !(fast > 2.5*slow) {
		t.Errorf("fast-phase power %v not well above slow-phase %v", fast, slow)
	}
}
