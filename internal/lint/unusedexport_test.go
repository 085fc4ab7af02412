package lint_test

import (
	"testing"

	"phasemon/internal/lint"
	"phasemon/internal/lint/linttest"
)

func TestUnusedExport(t *testing.T) {
	linttest.Run(t, "testdata", lint.UnusedExportAnalyzer,
		"unusedexport", "unusedexport_api", "unusedexport_user")
}
