package tournament

import (
	"errors"
	"strings"
	"testing"
)

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("workloads=applu_in,gzip_graphic;specs=lastvalue,markov_2;gran=100000000,50000000;intervals=64;seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Workloads) != 2 || len(g.Specs) != 2 || len(g.Granularities) != 2 {
		t.Fatalf("parsed grid %+v, want 2x2x2", g)
	}
	if g.Intervals != 64 || g.Seed != 9 {
		t.Fatalf("intervals/seed = %d/%d, want 64/9", g.Intervals, g.Seed)
	}
}

func TestParseGridShortKeys(t *testing.T) {
	g, err := ParseGrid("w=applu_in;p=gpht;i=16")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Workloads) != 1 || len(g.Specs) != 1 || g.Intervals != 16 {
		t.Fatalf("parsed %+v", g)
	}
}

func TestParseGridErrors(t *testing.T) {
	bad := []struct{ in, frag string }{
		{"", "no workloads"},
		{"workloads=applu_in", "no predictor specs"},
		{"workloads=applu_in;specs=perceptron", "unknown predictor kind"},
		{"workloads=nosuch;specs=gpht", "nosuch"},
		{"workloads=applu_in;specs=gpht;gran=0", "positive uop count"},
		{"workloads=applu_in;specs=gpht;gran=many", "positive uop count"},
		{"workloads=applu_in;specs=gpht;intervals=-4", "positive count"},
		{"workloads=applu_in;specs=gpht;seed=soon", "integer"},
		{"workloads=applu_in;specs=gpht;color=red", "unknown key"},
		{"workloads=applu_in;specs=gpht;oops", "key=value"},
		{"workloads=applu_in,applu_in;specs=gpht", "listed twice"},
		{"workloads=applu_in;specs=gpht,gpht", "listed twice"},
		{"workloads=applu_in;specs=baseline", "not a contestant"},
	}
	for _, c := range bad {
		_, err := ParseGrid(c.in)
		if err == nil {
			t.Errorf("ParseGrid(%q): want error", c.in)
			continue
		}
		if !errors.Is(err, ErrGrid) {
			t.Errorf("ParseGrid(%q): error %v not wrapped in ErrGrid", c.in, err)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ParseGrid(%q): error %q missing %q", c.in, err, c.frag)
		}
	}
}

func TestZooSpecsCoverRegistry(t *testing.T) {
	specs := ZooSpecs()
	set := map[string]bool{}
	for _, s := range specs {
		set[s] = true
	}
	for _, kind := range []string{"lastvalue", "gpht", "runlength", "markov", "dtree", "linreg"} {
		if !set[kind] {
			t.Errorf("ZooSpecs() missing %q", kind)
		}
	}
	if set["oracle"] {
		t.Error("ZooSpecs() includes the oracle")
	}
	// Every emitted spec must survive grid validation.
	g := Grid{Workloads: []string{"applu_in"}, Specs: specs}
	if err := g.Validate(); err != nil {
		t.Errorf("ZooSpecs grid invalid: %v", err)
	}
}
