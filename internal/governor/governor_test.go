package governor

import (
	"math"
	"testing"

	"phasemon/internal/cpusim"
	"phasemon/internal/daq"
	"phasemon/internal/dvfs"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/workload"
)

func gen(t *testing.T, name string, intervals int) workload.Generator {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Generator(workload.Params{Seed: 1, Intervals: intervals})
}

func TestBaselineStaysAtFullSpeed(t *testing.T) {
	r, err := Run(gen(t, "swim_in", 50), Unmanaged(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Run.Transitions != 0 {
		t.Errorf("baseline performed %d DVFS transitions", r.Run.Transitions)
	}
	for _, e := range r.Log {
		if e.Setting != 0 {
			t.Fatalf("baseline interval %d at setting %d", e.Index, e.Setting)
		}
	}
	if r.Policy != "Baseline" {
		t.Errorf("Policy = %q", r.Policy)
	}
}

func TestQ2BenchmarksLargeEDPImprovement(t *testing.T) {
	// Paper Section 6.1: "the trivial Q2 applications swim and mcf
	// exhibit above 60% EDP improvements" — our calibration target is
	// >= 50% with both reactive and proactive management, and the two
	// methods nearly tie (Figure 12's swim/mcf bars).
	for _, name := range []string{"swim_in", "mcf_inp"} {
		g := gen(t, name, 400)
		res, err := Compare(g, []Policy{Unmanaged(), Reactive(), Proactive(8, 128)}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		base := res["Baseline"]
		lv := EDPImprovement(base, res["LastValue"])
		gp := EDPImprovement(base, res["GPHT_8_128"])
		if lv < 0.5 || gp < 0.5 {
			t.Errorf("%s: EDP improvements LV=%.2f GPHT=%.2f, want >= 0.5", name, lv, gp)
		}
		if math.Abs(lv-gp) > 0.05 {
			t.Errorf("%s: stable Q2 should tie: LV=%.3f GPHT=%.3f", name, lv, gp)
		}
	}
}

func TestAppluProactiveBeatsReactive(t *testing.T) {
	// The paper's central management result (Figure 12): for variable
	// Q3 benchmarks, GPHT-guided proactive DVFS achieves higher EDP
	// improvement than last-value reactive DVFS with no worse
	// performance degradation.
	g := gen(t, "applu_in", 600)
	res, err := Compare(g, []Policy{Unmanaged(), Reactive(), Proactive(8, 128)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := res["Baseline"]
	lvEDP := EDPImprovement(base, res["LastValue"])
	gpEDP := EDPImprovement(base, res["GPHT_8_128"])
	if !(gpEDP > lvEDP+0.02) {
		t.Errorf("GPHT EDP improvement %.3f not decisively above reactive %.3f", gpEDP, lvEDP)
	}
	if gpEDP < 0.10 || gpEDP > 0.60 {
		t.Errorf("GPHT EDP improvement %.3f outside plausible band", gpEDP)
	}
	lvDeg := PerformanceDegradation(base, res["LastValue"])
	gpDeg := PerformanceDegradation(base, res["GPHT_8_128"])
	if gpDeg > lvDeg+0.02 {
		t.Errorf("GPHT degradation %.3f worse than reactive %.3f", gpDeg, lvDeg)
	}
}

func TestStableCPUBoundBenchmarkUnaffected(t *testing.T) {
	// crafty is flat phase 1: management must neither help nor hurt.
	g := gen(t, "crafty_in", 200)
	res, err := Compare(g, []Policy{Unmanaged(), Proactive(8, 128)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base, man := res["Baseline"], res["GPHT_8_128"]
	if d := PerformanceDegradation(base, man); math.Abs(d) > 0.005 {
		t.Errorf("degradation %.4f on a flat CPU-bound benchmark", d)
	}
	if e := EDPImprovement(base, man); math.Abs(e) > 0.01 {
		t.Errorf("EDP improvement %.4f on a benchmark with no savings potential", e)
	}
}

func TestOracleIsUpperBoundOnApplu(t *testing.T) {
	g := gen(t, "applu_in", 500)
	m := machine.New(machine.Config{})
	future, err := FuturePhases(g, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compare(g, []Policy{Unmanaged(), Proactive(8, 128), Oracle(future)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := res["Baseline"]
	gp := EDPImprovement(base, res["GPHT_8_128"])
	or := EDPImprovement(base, res["Oracle"])
	// Oracle accuracy is 1 by construction; its EDP cannot be
	// meaningfully below the GPHT's.
	acc, err := res["Oracle"].Accuracy.Accuracy()
	if err != nil || acc < 0.999 {
		t.Errorf("oracle accuracy = %v, %v", acc, err)
	}
	if or < gp-0.01 {
		t.Errorf("oracle EDP improvement %.3f below GPHT %.3f", or, gp)
	}
}

func TestBoundedDegradationTranslation(t *testing.T) {
	// Section 6.3: a conservative translation derived for a 5% bound
	// must keep measured degradation under ~5% while still saving
	// energy, at reduced EDP improvement.
	model := cpusim.New(cpusim.DefaultConfig())
	ladder := dvfs.PentiumM()
	tab := phase.Default()
	// Derive at a pessimistic MLP of 2 so the static bound covers all
	// the suite's workloads (their MLPs range from 0.4 to 2.0).
	slow := func(mem, coreUPC, f, fmax float64) float64 {
		return model.SlowdownMLP(mem, coreUPC, 2.0, f, fmax)
	}
	conservative, err := dvfs.DeriveBounded(ladder, tab, slow, 0.05, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"swim_in", "applu_in", "mcf_inp"} {
		g := gen(t, name, 300)
		base, err := Run(g, Unmanaged(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		aggressive, err := Run(g, Proactive(8, 128), Config{})
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := Run(g, Proactive(8, 128), Config{Translation: conservative})
		if err != nil {
			t.Fatal(err)
		}
		deg := PerformanceDegradation(base, bounded)
		if deg > 0.055 {
			t.Errorf("%s: bounded degradation %.3f exceeds 5%% target", name, deg)
		}
		if deg > PerformanceDegradation(base, aggressive)+1e-9 {
			t.Errorf("%s: bounded run slower than aggressive run", name)
		}
		es := EnergySavings(base, bounded)
		if es <= 0 {
			t.Errorf("%s: bounded run saves no energy (%.3f)", name, es)
		}
		if EDPImprovement(base, bounded) > EDPImprovement(base, aggressive)+1e-9 {
			t.Errorf("%s: bounded EDP improvement exceeds aggressive", name)
		}
	}
}

func TestNormalizedMetrics(t *testing.T) {
	g := gen(t, "swim_in", 200)
	res, err := Compare(g, []Policy{Unmanaged(), Proactive(8, 128)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base, man := res["Baseline"], res["GPHT_8_128"]
	nb := NormalizedBIPS(base, man)
	np := NormalizedPower(base, man)
	ne := NormalizedEDP(base, man)
	if nb <= 0 || nb > 1.001 {
		t.Errorf("normalized BIPS = %v", nb)
	}
	if np <= 0 || np >= 1 {
		t.Errorf("normalized power = %v (swim should save power)", np)
	}
	if ne <= 0 || ne >= 1 {
		t.Errorf("normalized EDP = %v", ne)
	}
	// Identities: EDP ratio = (E/E)·(T/T).
	wantNE := (man.Run.EnergyJ / base.Run.EnergyJ) * (man.Run.TimeS / base.Run.TimeS)
	if math.Abs(ne-wantNE) > 1e-9 {
		t.Errorf("normalized EDP %v != identity %v", ne, wantNE)
	}
}

func TestRunValidation(t *testing.T) {
	// A classifier whose phase count mismatches the default ladder
	// cannot use the implicit identity translation.
	cls, err := phase.NewTable("two", []float64{0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(gen(t, "swim_in", 5), Unmanaged(), Config{Classifier: cls}); err == nil {
		t.Error("mismatched classifier accepted with default translation")
	}
	// But it works with an explicit translation.
	tr, err := dvfs.NewTranslation(dvfs.PentiumM(), 2, []dvfs.Setting{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(gen(t, "swim_in", 5), Reactive(), Config{Classifier: cls, Translation: tr}); err != nil {
		t.Errorf("explicit translation rejected: %v", err)
	}
	// Ladder mismatch between machine and translation is rejected.
	other, err := dvfs.NewLadder("other", []dvfs.OperatingPoint{
		{FrequencyHz: 1e9, VoltageV: 1.2},
		{FrequencyHz: 5e8, VoltageV: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: machine.Config{Ladder: other}}
	if _, err := Run(gen(t, "swim_in", 5), Reactive(), cfg); err == nil {
		t.Error("ladder mismatch accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"Baseline":   Unmanaged(),
		"LastValue":  Reactive(),
		"GPHT_8_128": Proactive(8, 128),
		"Oracle":     Oracle(nil),
	}
	for want, pol := range cases {
		if pol.Name() != want {
			t.Errorf("Name = %q, want %q", pol.Name(), want)
		}
	}
	if Unmanaged().Managed() || !Reactive().Managed() || !Proactive(8, 128).Managed() {
		t.Error("Managed flags wrong")
	}
}

func TestOverheadInvisibleInManagedRuns(t *testing.T) {
	r, err := Run(gen(t, "equake_in", 300), Proactive(8, 128), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.OverheadFraction > 0.001 {
		t.Errorf("overhead fraction %v", r.OverheadFraction)
	}
	if r.BudgetViolations != 0 {
		t.Errorf("%d budget violations", r.BudgetViolations)
	}
}

func TestGeneratorReusedAcrossPoliciesSeesSameTrace(t *testing.T) {
	g := gen(t, "applu_in", 100)
	a, err := Run(g, Unmanaged(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Reactive(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Log) != len(b.Log) {
		t.Fatalf("log lengths differ: %d vs %d", len(a.Log), len(b.Log))
	}
	for i := range a.Log {
		if a.Log[i].Actual != b.Log[i].Actual {
			t.Fatalf("interval %d: phases differ across policies", i)
		}
	}
}

func TestRunMeasuredAgreesWithAnalytic(t *testing.T) {
	r, err := RunMeasured(gen(t, "applu_in", 40), Proactive(8, 128), Config{}, daq.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(r.Measurement.TotalEnergyJ-r.Run.EnergyJ) / r.Run.EnergyJ; rel > 0.02 {
		t.Errorf("DAQ energy %v vs analytic %v (rel %v)", r.Measurement.TotalEnergyJ, r.Run.EnergyJ, rel)
	}
	if d := len(r.Log) - len(r.Measurement.Phases); d < 0 || d > 1 {
		t.Errorf("DAQ found %d phases, log has %d", len(r.Measurement.Phases), len(r.Log))
	}
	// A caller-supplied recorder is rejected (the helper owns it).
	cfg := Config{Machine: machine.Config{Recorder: daq.NewWaveform()}}
	if _, err := RunMeasured(gen(t, "applu_in", 5), Unmanaged(), cfg, daq.Config{}); err == nil {
		t.Error("caller recorder accepted")
	}
}
