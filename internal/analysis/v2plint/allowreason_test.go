package v2plint_test

import (
	"testing"

	"switchv2p/internal/analysis/v2plint"
	"switchv2p/internal/analysis/v2plint/analysistest"
)

func TestAllowReason(t *testing.T) {
	// globalrand runs alongside so the testdata can hold a waiver that is
	// in use and one whose finding is gone.
	analysistest.Run(t, analysistest.TestData(t),
		[]*v2plint.Analyzer{v2plint.GlobalRand, v2plint.AllowReason}, "allowreason")
}
