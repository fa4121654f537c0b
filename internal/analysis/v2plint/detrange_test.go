package v2plint_test

import (
	"testing"

	"switchv2p/internal/analysis/v2plint"
	"switchv2p/internal/analysis/v2plint/analysistest"
)

func TestDetRange(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), []*v2plint.Analyzer{v2plint.DetRange}, "detrange")
}
