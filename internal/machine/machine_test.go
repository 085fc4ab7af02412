package machine

import (
	"math"
	"testing"

	"phasemon/internal/cpusim"
	"phasemon/internal/dvfs"
	"phasemon/internal/pmc"
	"phasemon/internal/workload"
)

// rearmHandler is a minimal PMI handler: it rearms the uop counter and
// counts invocations.
type rearmHandler struct {
	gran  uint64
	calls int
	cost  float64
}

func (h *rearmHandler) HandlePMI(m *Machine) float64 {
	h.calls++
	if err := m.PMCs().Arm(0, h.gran); err != nil {
		panic(err)
	}
	return h.cost
}

// collectRecorder keeps every span.
type collectRecorder struct {
	spans []Span
}

func (r *collectRecorder) Record(s Span) { r.spans = append(r.spans, s) }

func setupMachine(t *testing.T, rec Recorder) *Machine {
	t.Helper()
	m := New(Config{Recorder: rec})
	if err := m.PMCs().Configure(0, pmc.EventUopsRetired, true); err != nil {
		t.Fatal(err)
	}
	if err := m.PMCs().Configure(1, pmc.EventBusTranMem, false); err != nil {
		t.Fatal(err)
	}
	if err := m.PMCs().Arm(0, 100_000_000); err != nil {
		t.Fatal(err)
	}
	m.PMCs().Start()
	return m
}

func TestRunRaisesPMIPerGranularity(t *testing.T) {
	m := setupMachine(t, nil)
	h := &rearmHandler{gran: 100_000_000}
	p, err := workload.ByName("crafty_in")
	if err != nil {
		t.Fatal(err)
	}
	gen := p.Generator(workload.Params{Seed: 1, Intervals: 25})
	res, err := m.Run(gen, h)
	if err != nil {
		t.Fatal(err)
	}
	// 25 intervals of exactly one granularity each: 25 PMIs.
	if h.calls != 25 {
		t.Errorf("handler calls = %d, want 25", h.calls)
	}
	if res.PMIs != 25 {
		t.Errorf("PMIs = %d, want 25", res.PMIs)
	}
	if math.Abs(res.Uops-25*100e6) > 1 {
		t.Errorf("uops = %v", res.Uops)
	}
	if res.TimeS <= 0 || res.EnergyJ <= 0 {
		t.Errorf("non-physical result %+v", res)
	}
	if res.BIPS() <= 0 {
		t.Errorf("BIPS = %v", res.BIPS())
	}
	if res.EDP() != res.EnergyJ*res.TimeS {
		t.Errorf("EDP = %v", res.EDP())
	}
}

func TestRunSplitsOversizedSegments(t *testing.T) {
	// A segment of 250M uops with a 100M granularity must trigger two
	// PMIs inside it (at 100M and 200M).
	m := setupMachine(t, nil)
	h := &rearmHandler{gran: 100_000_000}
	model := cpusim.New(cpusim.DefaultConfig())
	w, err := model.GridWork(0.5, 0.01, 1.5e9, 250e6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(&repeatGen{w: w, n: 2}, h)
	if err != nil {
		t.Fatal(err)
	}
	// 500M uops total -> 5 PMIs.
	if h.calls != 5 {
		t.Errorf("handler calls = %d, want 5", h.calls)
	}
	if math.Abs(res.Uops-500e6) > 1 {
		t.Errorf("uops = %v", res.Uops)
	}
}

func TestRunWithoutUopCounterFails(t *testing.T) {
	m := New(Config{})
	p, _ := workload.ByName("crafty_in")
	if _, err := m.Run(p.Generator(workload.Params{Seed: 1, Intervals: 1}), nil); err == nil {
		t.Fatal("expected ErrNoUopCounter")
	}
}

func TestHandlerOverheadAccounting(t *testing.T) {
	m := setupMachine(t, nil)
	h := &rearmHandler{gran: 100_000_000, cost: 10e-6}
	p, _ := workload.ByName("crafty_in")
	res, err := m.Run(p.Generator(workload.Params{Seed: 1, Intervals: 10}), h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.OverheadS-10*10e-6) > 1e-12 {
		t.Errorf("overhead = %v, want 100µs", res.OverheadS)
	}
	// Overhead must be invisible: well below 0.1% of run time at 100M
	// granularity (the paper's design target).
	if f := m.OverheadFraction(); f > 0.001 {
		t.Errorf("overhead fraction = %v, want < 0.1%%", f)
	}
}

func TestEnergyMatchesPowerIntegral(t *testing.T) {
	rec := &collectRecorder{}
	m := setupMachine(t, rec)
	h := &rearmHandler{gran: 100_000_000}
	p, _ := workload.ByName("applu_in")
	res, err := m.Run(p.Generator(workload.Params{Seed: 1, Intervals: 50}), h)
	if err != nil {
		t.Fatal(err)
	}
	var e, d float64
	for _, s := range rec.spans {
		e += s.Watts * s.Dur
		d += s.Dur
	}
	if math.Abs(e-res.EnergyJ)/res.EnergyJ > 1e-9 {
		t.Errorf("waveform energy %v != run energy %v", e, res.EnergyJ)
	}
	if math.Abs(d-res.TimeS)/res.TimeS > 1e-9 {
		t.Errorf("waveform duration %v != run time %v", d, res.TimeS)
	}
	// Spans are contiguous in time.
	for i := 1; i < len(rec.spans); i++ {
		prevEnd := rec.spans[i-1].T0 + rec.spans[i-1].Dur
		if math.Abs(rec.spans[i].T0-prevEnd) > 1e-9 {
			t.Fatalf("span %d not contiguous: starts %v, previous ended %v", i, rec.spans[i].T0, prevEnd)
		}
	}
	// All spans during the run carry the app marker bit.
	for i, s := range rec.spans {
		if s.Port&PortBitApp == 0 {
			t.Fatalf("span %d missing app bit", i)
		}
	}
}

func TestParallelPort(t *testing.T) {
	var p ParallelPort
	p.Set(PortBitApp)
	if p.Bits() != PortBitApp {
		t.Errorf("Bits = %b", p.Bits())
	}
	p.Toggle(PortBitPhase)
	p.Toggle(PortBitPhase)
	if p.Bits() != PortBitApp {
		t.Errorf("double toggle changed state: %b", p.Bits())
	}
	p.Set(PortBitHandler)
	p.Clear(PortBitApp)
	if p.Bits() != PortBitHandler {
		t.Errorf("Bits = %b", p.Bits())
	}
}

func TestSlowerSettingsReduceEnergyIncreaseTime(t *testing.T) {
	run := func(s dvfs.Setting) RunResult {
		m := setupMachine(t, nil)
		if _, err := m.DVFS().Set(s); err != nil {
			t.Fatal(err)
		}
		h := &rearmHandler{gran: 100_000_000}
		p, _ := workload.ByName("gap_ref")
		res, err := m.Run(p.Generator(workload.Params{Seed: 2, Intervals: 20}), h)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := run(0)
	slow := run(5)
	if !(slow.TimeS > fast.TimeS) {
		t.Errorf("slow run not slower: %v vs %v", slow.TimeS, fast.TimeS)
	}
	if !(slow.EnergyJ < fast.EnergyJ) {
		t.Errorf("slow run not cheaper: %v vs %v", slow.EnergyJ, fast.EnergyJ)
	}
}

func TestRunRejectsInvalidWork(t *testing.T) {
	m := setupMachine(t, nil)
	bad := &badGen{}
	if _, err := m.Run(bad, nil); err == nil {
		t.Fatal("invalid work accepted")
	}
}

// repeatGen emits one work item n times.
type repeatGen struct {
	w    cpusim.Work
	n, i int
}

func (g *repeatGen) Name() string { return "repeat" }
func (g *repeatGen) Next() (cpusim.Work, bool) {
	if g.i >= g.n {
		return cpusim.Work{}, false
	}
	g.i++
	return g.w, true
}
func (g *repeatGen) Reset() { g.i = 0 }

type badGen struct{ done bool }

func (g *badGen) Name() string { return "bad" }
func (g *badGen) Next() (cpusim.Work, bool) {
	if g.done {
		return cpusim.Work{}, false
	}
	g.done = true
	return cpusim.Work{Uops: -1}, true
}
func (g *badGen) Reset() { g.done = false }

func TestDefaultsApplied(t *testing.T) {
	m := New(Config{})
	if m.CPU() == nil || m.power == nil || m.DVFS() == nil || m.PMCs() == nil {
		t.Fatal("defaults not applied")
	}
	if m.DVFS().Ladder().Len() != 6 {
		t.Errorf("default ladder has %d points", m.DVFS().Ladder().Len())
	}
	if m.acct.nowS != 0 || m.acct.energyJ != 0 {
		t.Error("fresh machine not at origin")
	}
	if m.OverheadFraction() != 0 {
		t.Error("fresh machine has overhead")
	}
}

func TestRunWithNilHandlerStillCounts(t *testing.T) {
	// Without a handler the PMI fires, nobody rearms, and the counter
	// free-runs to its next natural wrap — the machine must still
	// complete the workload with correct totals.
	m := setupMachine(t, nil)
	p, err := workload.ByName("crafty_in")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(p.Generator(workload.Params{Seed: 1, Intervals: 5}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PMIs != 1 {
		t.Errorf("PMIs = %d, want exactly the first overflow", res.PMIs)
	}
	if math.Abs(res.Uops-5*100e6) > 1 {
		t.Errorf("uops = %v", res.Uops)
	}
	if res.OverheadS != 0 {
		t.Errorf("overhead %v without a handler", res.OverheadS)
	}
}
