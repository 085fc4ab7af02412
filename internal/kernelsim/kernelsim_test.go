package kernelsim

import (
	"math"
	"testing"

	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/workload"
)

func newModule(t *testing.T, pred core.Predictor, tr *dvfs.Translation) (*Module, *machine.Machine) {
	t.Helper()
	mon, err := core.NewMonitor(phase.Default(), pred)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule(Config{Monitor: mon, Translation: tr})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{})
	if err := mod.Load(m); err != nil {
		t.Fatal(err)
	}
	return mod, m
}

func TestNewModuleValidation(t *testing.T) {
	if _, err := NewModule(Config{}); err == nil {
		t.Error("missing monitor accepted")
	}
	mon, _ := core.NewMonitor(phase.Default(), core.NewLastValue())
	if _, err := NewModule(Config{Monitor: mon, GranularityUops: 1 << 41}); err == nil {
		t.Error("oversized granularity accepted")
	}
}

func TestModuleLifecycle(t *testing.T) {
	mod, m := newModule(t, core.NewLastValue(), nil)
	if !mod.loaded {
		t.Fatal("module not loaded")
	}
	if !m.PMCs().Running() {
		t.Fatal("counters not started at load")
	}
	mod.Unload(m)
	if mod.loaded || m.PMCs().Running() {
		t.Fatal("unload incomplete")
	}
	// An unloaded module's handler is inert.
	if cost := mod.HandlePMI(m); cost != 0 {
		t.Errorf("unloaded handler cost = %v", cost)
	}
}

func TestMonitoringOnlyRunLogsPhases(t *testing.T) {
	mod, m := newModule(t, core.NewLastValue(), nil)
	p, err := workload.ByName("applu_in")
	if err != nil {
		t.Fatal(err)
	}
	gen := p.Generator(workload.Params{Seed: 1, Intervals: 60})
	res, err := m.Run(gen, mod)
	if err != nil {
		t.Fatal(err)
	}
	if res.PMIs != 60 {
		t.Fatalf("PMIs = %d, want 60", res.PMIs)
	}
	log := mod.ReadLog()
	if len(log) != 60 {
		t.Fatalf("log has %d entries", len(log))
	}
	tab := phase.Default()
	for i, e := range log {
		if e.Index != i {
			t.Fatalf("entry %d has index %d", i, e.Index)
		}
		if e.Uops != 100_000_000 {
			t.Fatalf("entry %d uops = %d", i, e.Uops)
		}
		// The logged phase must match classifying the logged metric.
		want := tab.Classify(phase.Sample{MemPerUop: e.MemPerUop})
		if e.Actual != want {
			t.Fatalf("entry %d: phase %v, classifier says %v (mem %v)", i, e.Actual, want, e.MemPerUop)
		}
		if e.UPC <= 0 || e.UPC > 3 {
			t.Fatalf("entry %d: implausible UPC %v", i, e.UPC)
		}
		// Monitoring-only deployment never leaves the fastest setting.
		if e.Setting != 0 {
			t.Fatalf("entry %d: setting %d without a translation", i, e.Setting)
		}
	}
}

func TestManagedRunAppliesTranslation(t *testing.T) {
	ladder := dvfs.PentiumM()
	tr, err := dvfs.Identity(ladder, 6)
	if err != nil {
		t.Fatal(err)
	}
	mod, m := newModule(t, core.NewLastValue(), tr)
	p, _ := workload.ByName("swim_in") // steady phase 5
	if _, err := m.Run(p.Generator(workload.Params{Seed: 1, Intervals: 30}), mod); err != nil {
		t.Fatal(err)
	}
	log := mod.ReadLog()
	// After the first sample, a last-value-managed swim run settles at
	// the phase-5 setting (800 MHz = setting 4).
	for _, e := range log[2:] {
		if e.Setting != 4 {
			t.Fatalf("entry %d: setting %d, want 4 (800 MHz)", e.Index, e.Setting)
		}
	}
	if m.DVFS().Transitions() == 0 {
		t.Error("no DVFS transitions recorded")
	}
}

func TestMemPerUopInLogIsDVFSInvariant(t *testing.T) {
	// Run applu once unmanaged and once managed; the logged Mem/Uop
	// series must agree (paper Figure 10, top chart).
	runOnce := func(tr *dvfs.Translation) []Entry {
		mod, m := newModule(t, core.NewLastValue(), tr)
		p, _ := workload.ByName("applu_in")
		if _, err := m.Run(p.Generator(workload.Params{Seed: 7, Intervals: 80}), mod); err != nil {
			t.Fatal(err)
		}
		return mod.ReadLog()
	}
	tr, _ := dvfs.Identity(dvfs.PentiumM(), 6)
	baseline := runOnce(nil)
	managed := runOnce(tr)
	if len(baseline) != len(managed) {
		t.Fatalf("log lengths differ: %d vs %d", len(baseline), len(managed))
	}
	for i := range baseline {
		// Counter rounding may differ by a transaction or two between
		// runs; the metric must agree to within noise far below the
		// 0.005 phase-boundary spacing.
		if d := math.Abs(baseline[i].MemPerUop - managed[i].MemPerUop); d > 1e-6 {
			t.Fatalf("interval %d: Mem/Uop differs by %v under management", i, d)
		}
		if baseline[i].Actual != managed[i].Actual {
			t.Fatalf("interval %d: phase differs under management (%v vs %v)",
				i, baseline[i].Actual, managed[i].Actual)
		}
	}
}

func TestUPCClassifierIsNotDVFSInvariant(t *testing.T) {
	// The Section 4 pitfall, demonstrated end-to-end: define phases by
	// UPC instead of Mem/Uop and the phases themselves change once
	// management reacts — applu's memory-bound intervals cross UPC
	// bins as the frequency drops.
	runOnce := func(tr *dvfs.Translation) []Entry {
		mon, err := core.NewMonitor(phase.DefaultUPC(), core.NewLastValue())
		if err != nil {
			t.Fatal(err)
		}
		mod, err := NewModule(Config{Monitor: mon, Translation: tr})
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(machine.Config{})
		if err := mod.Load(m); err != nil {
			t.Fatal(err)
		}
		p, _ := workload.ByName("applu_in")
		if _, err := m.Run(p.Generator(workload.Params{Seed: 3, Intervals: 40}), mod); err != nil {
			t.Fatal(err)
		}
		return mod.ReadLog()
	}
	tr, _ := dvfs.Identity(dvfs.PentiumM(), 6)
	baseline := runOnce(nil)
	managed := runOnce(tr)
	differ := 0
	for i := range baseline {
		if baseline[i].Actual != managed[i].Actual {
			differ++
		}
	}
	if differ == 0 {
		t.Error("UPC-defined phases unchanged under management; expected action-dependent phases")
	}
}

func TestHandlerCostScalesWithPHTEntries(t *testing.T) {
	mk := func(entries int) *Module {
		g := core.MustNewGPHT(core.GPHTConfig{GPHRDepth: 8, PHTEntries: entries, NumPhases: 6})
		mon, _ := core.NewMonitor(phase.Default(), g)
		mod, err := NewModule(Config{Monitor: mon})
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	small := mk(128).handlerCostS
	big := mk(1024).handlerCostS
	if !(big > small) {
		t.Errorf("1024-entry handler cost %v not above 128-entry %v", big, small)
	}
	// Even the big table stays within the interrupt budget...
	if big > 50e-6 {
		t.Errorf("1024-entry cost %v exceeds 50µs budget", big)
	}
	// ...but it is an order of magnitude costlier than the base cost,
	// which is why the paper deploys 128 entries.
	lv, _ := core.NewMonitor(phase.Default(), core.NewLastValue())
	modLV, _ := NewModule(Config{Monitor: lv})
	if !(big > 5*modLV.handlerCostS) {
		t.Errorf("search cost not visible: %v vs base %v", big, modLV.handlerCostS)
	}
}

func TestOverheadInvisibleAtPaperGranularity(t *testing.T) {
	g := core.MustNewGPHT(core.DefaultGPHTConfig())
	mon, _ := core.NewMonitor(phase.Default(), g)
	tr, _ := dvfs.Identity(dvfs.PentiumM(), 6)
	mod, err := NewModule(Config{Monitor: mon, Translation: tr})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{})
	if err := mod.Load(m); err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ByName("applu_in")
	if _, err := m.Run(p.Generator(workload.Params{Seed: 1, Intervals: 100}), mod); err != nil {
		t.Fatal(err)
	}
	if f := m.OverheadFraction(); f > 0.001 {
		t.Errorf("overhead fraction %v, want < 0.1%% (the 'no visible overhead' claim)", f)
	}
	if mod.BudgetViolations() != 0 {
		t.Errorf("%d interrupt budget violations", mod.BudgetViolations())
	}
	if mod.Samples() != 100 {
		t.Errorf("Samples = %d", mod.Samples())
	}
}

func TestLogRingBufferSaturation(t *testing.T) {
	mon, _ := core.NewMonitor(phase.Default(), core.NewLastValue())
	mod, err := NewModule(Config{Monitor: mon, Log: make([]Entry, 0, 16)})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{})
	if err := mod.Load(m); err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ByName("crafty_in")
	if _, err := m.Run(p.Generator(workload.Params{Seed: 1, Intervals: 40}), mod); err != nil {
		t.Fatal(err)
	}
	log := mod.ReadLog()
	if len(log) != 16 {
		t.Fatalf("saturated log has %d entries, want 16", len(log))
	}
	// Oldest-first ordering of the most recent 16 samples (24..39).
	for i, e := range log {
		if e.Index != 24+i {
			t.Fatalf("log[%d].Index = %d, want %d", i, e.Index, 24+i)
		}
	}
}

// Shared helpers for this package's tests.

func mustProfile(t *testing.T, name string) *workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func workloadParams(intervals int) workload.Params {
	return workload.Params{Seed: 1, Intervals: intervals}
}

func TestToTrace(t *testing.T) {
	mod, m := newModule(t, core.NewLastValue(), func() *dvfs.Translation {
		tr, err := dvfs.Identity(dvfs.PentiumM(), 6)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}())
	p := mustProfile(t, "applu_in")
	if _, err := m.Run(p.Generator(workloadParams(20)), mod); err != nil {
		t.Fatal(err)
	}
	entries := mod.ReadLog()
	log := ToTrace(entries, dvfs.PentiumM())
	if log.Len() != len(entries) {
		t.Fatalf("trace has %d records for %d entries", log.Len(), len(entries))
	}
	prevEnd := 0.0
	for i, r := range log.Records() {
		e := entries[i]
		if r.MemPerUop != e.MemPerUop || r.Actual != e.Actual || r.Predicted != e.Predicted {
			t.Fatalf("record %d mismatches entry: %+v vs %+v", i, r, e)
		}
		wantFreq := dvfs.PentiumM().Point(e.Setting).FrequencyHz
		if r.FreqHz != wantFreq {
			t.Fatalf("record %d: freq %v, want %v", i, r.FreqHz, wantFreq)
		}
		wantDur := float64(e.Cycles) / wantFreq
		if math.Abs(r.DurS-wantDur) > 1e-12 {
			t.Fatalf("record %d: dur %v, want %v", i, r.DurS, wantDur)
		}
		if math.Abs(r.StartS-prevEnd) > 1e-9 {
			t.Fatalf("record %d: start %v, want %v", i, r.StartS, prevEnd)
		}
		prevEnd = r.StartS + r.DurS
	}
	// Without a ladder, durations are zeroed but the records survive.
	bare := ToTrace(entries, nil)
	if bare.Len() != len(entries) || bare.Records()[0].DurS != 0 {
		t.Errorf("nil-ladder conversion: len %d, dur %v", bare.Len(), bare.Records()[0].DurS)
	}
}
