package v2plint_test

import (
	"testing"

	"switchv2p/internal/analysis/v2plint"
	"switchv2p/internal/analysis/v2plint/analysistest"
)

func TestFaultGate(t *testing.T) {
	analysistest.RunWithSuggestedFixes(t, analysistest.TestData(t), []*v2plint.Analyzer{v2plint.FaultGate},
		"faultgate/simnet")
}
