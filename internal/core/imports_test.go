package core

import (
	"go/build"
	"testing"
)

// TestNoTelemetryImport keeps the monitor and the predictors free of
// telemetry: a stepping loop that publishes some folds its own record
// of each interval, so no non-test file here may import the hub.
func TestNoTelemetryImport(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "phasemon/internal/telemetry" {
			t.Errorf("package core imports %s outside its tests", imp)
		}
	}
}
