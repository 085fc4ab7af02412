package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasemon/internal/core"
	"phasemon/internal/phase"
	"phasemon/internal/trace"
)

// TestBuildPredictor: the -predictor shorthand kinds build the
// deployed geometries — the spec grammar's defaults are GPHT 8×128, a
// 128-interval fixed window, and a 128-interval variable window with a
// 0.005 transition threshold.
func TestBuildPredictor(t *testing.T) {
	env := core.SpecEnv{Classifier: phase.Default()}
	cases := []struct {
		kind string
		want string
	}{
		{"gpht", "GPHT_8_128"},
		{"lastvalue", "LastValue"},
		{"fixwindow", "FixWindow_128"},
		{"varwindow", "VarWindow_128_0.005"},
	}
	for _, c := range cases {
		p, err := core.NewPredictorFromSpec(c.kind, env)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if p.Name() != c.want {
			t.Errorf("%s: Name = %q, want %q", c.kind, p.Name(), c.want)
		}
	}
	if err := run("applu_in", "gpht_0_128", "", 10, 1, "", false, ""); err == nil {
		t.Error("invalid GPHT geometry accepted")
	}
}

func TestRunEndToEndWithCSV(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "trace.csv")
	if err := run("applu_in", "gpht", "", 50, 1, csvPath, false, ""); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 50 {
		t.Errorf("CSV has %d records, want 50", log.Len())
	}
	for i, r := range log.Records() {
		if r.Index != i || r.Uops != 100e6 {
			t.Fatalf("record %d malformed: %+v", i, r)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("no_such", "gpht", "", 10, 1, "", false, ""); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run("applu_in", "bogus", "", 10, 1, "", false, ""); err == nil {
		t.Error("unknown predictor accepted")
	}
	if err := run("applu_in", "gpht", "not-a-number", 10, 1, "", false, ""); err == nil {
		t.Error("malformed -phases accepted")
	}
	if err := run("applu_in", "gpht", "", 10, 1, "/nonexistent-dir/x.csv", false, ""); err == nil {
		t.Error("unwritable CSV path accepted")
	}
	if err := run("applu_in", "gpht", "", 10, 1, "", false, ""); err != nil {
		t.Errorf("plain run failed: %v", err)
	}
	// Custom phases + analysis path.
	if err := run("applu_in", "gpht", "0.01,0.025", 60, 1, "", true, ""); err != nil {
		t.Errorf("custom-phase analyzed run failed: %v", err)
	}
}

func TestCSVPathsAreClean(t *testing.T) {
	// Guard against the temp dir leaking into the repo: the test above
	// uses t.TempDir, and no CSV should exist here.
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".csv") {
			t.Errorf("stray CSV artifact %q in cmd directory", e.Name())
		}
	}
}
