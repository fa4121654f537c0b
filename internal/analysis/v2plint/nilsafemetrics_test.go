package v2plint_test

import (
	"testing"

	"switchv2p/internal/analysis/v2plint"
	"switchv2p/internal/analysis/v2plint/analysistest"
)

func TestNilSafeMetrics(t *testing.T) {
	// "nilsafemetrics/telemetry" is under the contract by package name;
	// "nilsafemetrics/annotated" only through //v2plint:nilsafe.
	analysistest.RunWithSuggestedFixes(t, analysistest.TestData(t), []*v2plint.Analyzer{v2plint.NilSafeMetrics},
		"nilsafemetrics/telemetry", "nilsafemetrics/annotated")
}
