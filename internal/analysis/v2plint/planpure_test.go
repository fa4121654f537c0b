package v2plint_test

import (
	"testing"

	"switchv2p/internal/analysis/v2plint"
	"switchv2p/internal/analysis/v2plint/analysistest"
)

func TestPlanPure(t *testing.T) {
	// "planpure/telemetry" is the dependency (stub telemetry types),
	// "planpure" the annotated roots with direct/method/transitive
	// violations and the seeded-rand/materialization negatives, and
	// "planpure/scenario" proves the known entry points are checked
	// without annotations.
	analysistest.Run(t, analysistest.TestData(t), []*v2plint.Analyzer{v2plint.PlanPure},
		"planpure/telemetry", "planpure", "planpure/scenario")
}
