package v2plint_test

import (
	"testing"

	"switchv2p/internal/analysis/v2plint"
	"switchv2p/internal/analysis/v2plint/analysistest"
)

func TestWallClock(t *testing.T) {
	// "internal/simnet" is under the contract and carries the seeded
	// violations; "other" (not under internal/) and
	// "internal/analysis/tool" (the linter's own tree) must stay silent.
	analysistest.Run(t, analysistest.TestData(t), []*v2plint.Analyzer{v2plint.WallClock},
		"internal/simnet", "other", "internal/analysis/tool")
}
