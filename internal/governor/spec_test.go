package governor_test

import (
	"errors"
	"testing"

	"phasemon/internal/governor"
)

func TestPolicyFromSpec(t *testing.T) {
	cases := []struct {
		in      string
		name    string
		managed bool
	}{
		{in: "", name: "Baseline", managed: false},
		{in: "baseline", name: "Baseline", managed: false},
		{in: "Unmanaged", name: "Baseline", managed: false},
		{in: "reactive", name: "LastValue", managed: true},
		{in: "lastvalue", name: "LastValue", managed: true},
		{in: "gpht_8_128", name: "GPHT_8_128", managed: true},
		{in: "gpht", name: "GPHT_8_128", managed: true},
		{in: "fixwindow_8", name: "FixWindow_8", managed: true},
		{in: "varwindow_128_0.005", name: "VarWindow_128_0.005", managed: true},
		{in: "duration", name: "Duration", managed: true},
		{in: "mon:gpht_8_128", name: "GPHT_8_128", managed: false},
		{in: "mon:lastvalue", name: "LastValue", managed: false},
	}
	for _, c := range cases {
		pol, err := governor.PolicyFromSpec(c.in)
		if err != nil {
			t.Errorf("PolicyFromSpec(%q): %v", c.in, err)
			continue
		}
		if pol.Name() != c.name {
			t.Errorf("PolicyFromSpec(%q).Name() = %q, want %q", c.in, pol.Name(), c.name)
		}
		if pol.Managed() != c.managed {
			t.Errorf("PolicyFromSpec(%q).Managed() = %v, want %v", c.in, pol.Managed(), c.managed)
		}
	}
}

func TestPolicyFromSpecOracle(t *testing.T) {
	_, err := governor.PolicyFromSpec("oracle")
	if !errors.Is(err, governor.ErrOracleFuture) {
		t.Fatalf("oracle spec: want ErrOracleFuture, got %v", err)
	}
}

func TestPolicyFromSpecErrors(t *testing.T) {
	for _, in := range []string{"perceptron", "gpht_0", "gpht_8_128_9_9"} {
		if _, err := governor.PolicyFromSpec(in); err == nil {
			t.Errorf("PolicyFromSpec(%q): want error", in)
		}
	}
}

func TestSpecPolicyRun(t *testing.T) {
	// A spec policy must produce the same managed run as the
	// hand-assembled Proactive policy it replaces.
	gen := testGen(t, "applu_in", 60)
	want, err := governor.Run(gen, governor.Proactive(8, 128), governor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := governor.PolicyFromSpec("gpht_8_128")
	if err != nil {
		t.Fatal(err)
	}
	got, err := governor.Run(gen, pol, governor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Run != want.Run || got.Policy != want.Policy {
		t.Errorf("spec policy diverged from Proactive(8,128): %+v vs %+v", got.Run, want.Run)
	}
}

func TestMonitoringOnlyPolicyStaysFast(t *testing.T) {
	gen := testGen(t, "applu_in", 60)
	pol, err := governor.PolicyFromSpec("mon:gpht_8_128")
	if err != nil {
		t.Fatal(err)
	}
	res, err := governor.Run(gen, pol, governor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Log {
		if e.Setting != 0 {
			t.Fatalf("monitoring-only run left the fastest setting: interval %d at %d", e.Index, e.Setting)
		}
	}
	if res.Accuracy.Total() == 0 {
		t.Error("monitoring-only run recorded no predictions")
	}
}

// TestReadsFutureMatchesPolicyFromSpec checks ReadsFuture against the
// spec parser: it holds exactly for the specs PolicyFromSpec rejects
// with ErrOracleFuture.
func TestReadsFutureMatchesPolicyFromSpec(t *testing.T) {
	for _, spec := range []string{"oracle", " Oracle ", "mon:oracle", "mon: ORACLE", "baseline", "", "reactive", "mon:lastvalue", "gpht_8_128", "markov_2"} {
		_, err := governor.PolicyFromSpec(spec)
		if got, want := governor.ReadsFuture(spec), errors.Is(err, governor.ErrOracleFuture); got != want {
			t.Errorf("ReadsFuture(%q) = %v, PolicyFromSpec error %v", spec, got, err)
		}
	}
}
