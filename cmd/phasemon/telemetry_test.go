package main

import (
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"phasemon/internal/telemetry"
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

// boundAddr extracts the "http://host:port" the telemetry startup line
// printed.
func boundAddr(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "http://")
	if i < 0 {
		t.Fatalf("no telemetry address in output:\n%s", out)
	}
	return strings.Fields(out[i:])[0]
}

func TestStartTelemetryDisabled(t *testing.T) {
	hub, stop, err := startTelemetry("", 6)
	if err != nil {
		t.Fatal(err)
	}
	if hub != nil {
		t.Error("empty address should disable telemetry (nil hub)")
	}
	stop() // must be callable even when disabled
}

func TestStartTelemetryServesEndpoints(t *testing.T) {
	var (
		hub  *telemetry.Hub
		stop func()
	)
	out := captureStdout(t, func() error {
		var err error
		hub, stop, err = startTelemetry("127.0.0.1:0", 6)
		return err
	})
	defer stop()
	if hub == nil {
		t.Fatal("enabled telemetry returned a nil hub")
	}
	hub.Steps.Inc()
	base := boundAddr(t, out)
	for _, ep := range []string{"/metrics", "/snapshot", "/events"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatalf("GET %s: %v", ep, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", ep, resp.StatusCode)
		}
		if ep == "/metrics" && !strings.Contains(string(body), telemetry.MetricSteps) {
			t.Errorf("/metrics missing %s:\n%s", telemetry.MetricSteps, body)
		}
	}
}

func TestRunWithTelemetry(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("applu_in", "gpht", "", 50, 1, "", false, "127.0.0.1:0")
	})
	if !strings.Contains(out, "telemetry: serving http://") {
		t.Errorf("no telemetry startup line in output:\n%s", out)
	}
	// The summary proves the hub was actually wired through the kernel
	// module: 50 simulated intervals must appear as 50 monitor steps.
	if !strings.Contains(out, "steps=50") {
		t.Errorf("telemetry summary does not show the run's steps:\n%s", out)
	}
}
