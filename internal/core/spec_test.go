package core

import (
	"strings"
	"testing"

	"phasemon/internal/phase"
	"phasemon/internal/telemetry"
)

func TestParsePredictorSpec(t *testing.T) {
	cases := []struct {
		in      string
		kind    string
		args    int
		wantErr bool
		errFrag string
	}{
		{in: "gpht", kind: "gpht"},
		{in: "GPHT_8_1024", kind: "gpht", args: 2},
		{in: "gpht_8_128_hyst", kind: "gpht", args: 3},
		{in: "LastValue", kind: "lastvalue"},
		{in: "lv", kind: "lastvalue"},
		{in: "FixWindow_128", kind: "fixwindow", args: 1},
		{in: "fw_8", kind: "fixwindow", args: 1},
		{in: "VarWindow_128_0.005", kind: "varwindow", args: 2},
		{in: "vw_64", kind: "varwindow", args: 1},
		{in: "dur_0.5", kind: "duration", args: 1},
		{in: "oracle", kind: "oracle"},
		{in: "runlength", kind: "runlength"},
		{in: "Markov_2", kind: "markov", args: 1},
		{in: "dtree_4", kind: "dtree", args: 1},
		{in: "LinReg_16", kind: "linreg", args: 1},
		{in: "", wantErr: true, errFrag: "empty"},
		{in: "perceptron", wantErr: true, errFrag: "unknown predictor kind"},
	}
	for _, c := range cases {
		spec, err := ParsePredictorSpec(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePredictorSpec(%q): want error, got %+v", c.in, spec)
			} else if !strings.Contains(err.Error(), c.errFrag) {
				t.Errorf("ParsePredictorSpec(%q): error %q missing %q", c.in, err, c.errFrag)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePredictorSpec(%q): %v", c.in, err)
			continue
		}
		if spec.Kind != c.kind || len(spec.Args) != c.args {
			t.Errorf("ParsePredictorSpec(%q) = %+v, want kind %q with %d args", c.in, spec, c.kind, c.args)
		}
	}
}

func TestSpecString(t *testing.T) {
	s := PredictorSpec{Kind: "gpht", Args: []string{"8", "128"}}
	if got := s.String(); got != "gpht_8_128" {
		t.Errorf("String() = %q, want gpht_8_128", got)
	}
	if got := (PredictorSpec{Kind: "oracle"}).String(); got != "oracle" {
		t.Errorf("String() = %q, want oracle", got)
	}
}

func TestNewPredictorFromSpecNames(t *testing.T) {
	// The registry must rebuild the exact predictors the bespoke
	// constructors produced, verified through their report names.
	cases := map[string]string{
		"lastvalue":          "LastValue",
		"gpht":               "GPHT_8_128",
		"gpht_4_1024":        "GPHT_4_1024",
		"gpht_4_64_hyst":     "GPHT_4_64",
		"fixwindow":          "FixWindow_128",
		"fixwindow_8":        "FixWindow_8",
		"fixwindow_8_mean":   "FixWindow_8",
		"varwindow":          "VarWindow_128_0.005",
		"varwindow_64_0.030": "VarWindow_64_0.030",
		"duration":           "Duration",
		"duration_0.5":       "Duration",
		"oracle":             "Oracle",
		"runlength":          "RunLength",
		"markov":             "Markov_1",
		"markov_3":           "Markov_3",
		"dtree":              "DTree_4",
		"dtree_6":            "DTree_6",
		"linreg":             "LinReg_16",
		"linreg_64":          "LinReg_64",
	}
	for in, want := range cases {
		p, err := NewPredictorFromSpec(in, SpecEnv{})
		if err != nil {
			t.Errorf("NewPredictorFromSpec(%q): %v", in, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("NewPredictorFromSpec(%q).Name() = %q, want %q", in, p.Name(), want)
		}
	}
}

func TestNewPredictorFromSpecErrors(t *testing.T) {
	bad := []string{
		"gpht_0",            // depth out of range
		"gpht_8_0",          // entries out of range
		"gpht_x",            // non-numeric depth
		"gpht_8_128_17_zzz", // too many args
		"lastvalue_1",       // takes no args
		"fixwindow_0",       // size out of range
		"fixwindow_8_wavelet",
		"varwindow_8_nope",
		"duration_2.5", // alpha out of (0,1]
		"oracle_now",
		"runlength_8", // takes no args
		"markov_0",    // order out of range
		"markov_5",    // order above the dense-table bound
		"markov_x",    // non-numeric order
		"dtree_0",     // depth out of range
		"dtree_9",     // depth above the leaf-table bound
		"dtree_4_gini",
		"linreg_1", // window below 2
		"linreg_nope",
	}
	for _, in := range bad {
		if _, err := NewPredictorFromSpec(in, SpecEnv{}); err == nil {
			t.Errorf("NewPredictorFromSpec(%q): want error, got nil", in)
		}
	}
}

func TestSpecEnvClassifier(t *testing.T) {
	// A spec-built GPHT must size its table to the environment's
	// classifier, not the default.
	tab, err := phase.NewTable("two", []float64{0.01})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictorFromSpec("gpht", SpecEnv{Classifier: tab})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.(*GPHT).Config().NumPhases; got != 2 {
		t.Errorf("NumPhases = %d, want 2 (from env classifier)", got)
	}
	// NumPhases alone works too.
	p, err = NewPredictorFromSpec("gpht", SpecEnv{NumPhases: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.(*GPHT).Config().NumPhases; got != 3 {
		t.Errorf("NumPhases = %d, want 3", got)
	}
}

func TestRegisterPredictorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("empty kind", func() { RegisterPredictor("", buildLastValue) })
	mustPanic("nil builder", func() { RegisterPredictor("novel", nil) })
	mustPanic("duplicate", func() { RegisterPredictor("gpht", buildLastValue) })
}

func TestRegisteredPredictorsSorted(t *testing.T) {
	kinds := RegisteredPredictors()
	want := []string{"dtree", "duration", "fixwindow", "gpht", "lastvalue", "linreg", "markov", "oracle", "runlength", "varwindow"}
	if len(kinds) < len(want) {
		t.Fatalf("RegisteredPredictors() = %v, want at least %v", kinds, want)
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Fatalf("RegisteredPredictors() not sorted: %v", kinds)
		}
	}
	set := map[string]bool{}
	for _, k := range kinds {
		set[k] = true
	}
	for _, k := range want {
		if !set[k] {
			t.Errorf("built-in kind %q missing from registry", k)
		}
	}
}

func TestWithTelemetryViaMonitorForwards(t *testing.T) {
	// The GPHT takes no hub of its own: the observed step that drives
	// it reports each PHT lookup, so the hub's counters mirror the
	// predictor's own accounting exactly, and a predictor without a
	// PHT reports none.
	hub := telemetry.NewHub(6)
	g := MustNewGPHT(DefaultGPHTConfig())
	mon, err := NewMonitor(phase.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	step := observedStep(mon, hub)
	// A period-3 phase pattern: misses while the depth-8 history
	// warms up, hits once it repeats.
	for i := 0; i < 60; i++ {
		step(phase.Sample{MemPerUop: []float64{0.001, 0.001, 0.05}[i%3], UPC: 1.0})
	}
	if hub.GPHTHits.Value() != g.Hits() || hub.GPHTMisses.Value() != g.Misses() || g.Hits() == 0 {
		t.Errorf("hub counted %d hits + %d misses, the GPHT %d + %d",
			hub.GPHTHits.Value(), hub.GPHTMisses.Value(), g.Hits(), g.Misses())
	}
	plain, err := NewMonitor(phase.Default(), NewLastValue())
	if err != nil {
		t.Fatal(err)
	}
	before := hub.GPHTHits.Value() + hub.GPHTMisses.Value()
	observedStep(plain, hub)(phase.Sample{MemPerUop: 0.001, UPC: 1.0})
	if after := hub.GPHTHits.Value() + hub.GPHTMisses.Value(); after != before {
		t.Errorf("a last-value monitor reported %d PHT lookups", after-before)
	}
}
