package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns everything it printed; fn's error fails the test.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if ferr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", ferr, out)
	}
	return string(out)
}

func TestStartTelemetryDisabled(t *testing.T) {
	hub, stop, err := startTelemetry("", 6)
	if err != nil {
		t.Fatal(err)
	}
	if hub != nil {
		t.Error("empty address should disable telemetry (nil hub)")
	}
	stop()
}

func TestRunWithTelemetry(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(os.Stdout, "applu_in", "gpht", 40, 1, false, 0, "127.0.0.1:0", 0)
	})
	if !strings.Contains(out, "telemetry: serving http://") {
		t.Errorf("no telemetry startup line in output:\n%s", out)
	}
	// Baseline + GPHT both run 40 intervals through the shared hub.
	if !strings.Contains(out, "steps=80") {
		t.Errorf("telemetry summary does not show both policies' steps:\n%s", out)
	}
	// A managed run over a variable benchmark must have actuated DVFS.
	if strings.Contains(out, "dvfs=0 ") {
		t.Errorf("telemetry summary shows no DVFS transitions:\n%s", out)
	}
}
