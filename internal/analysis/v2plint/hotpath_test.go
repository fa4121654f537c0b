package v2plint_test

import (
	"testing"

	"switchv2p/internal/analysis/v2plint"
	"switchv2p/internal/analysis/v2plint/analysistest"
)

func TestHotPathAlloc(t *testing.T) {
	// "hotpathalloc" seeds violations in annotated functions,
	// "hotpathalloc/simnet" proves the known entry points are checked
	// without annotations, and "hotpathneg" is the scoping negative:
	// the same constructs unannotated (including a detached marker)
	// must report nothing.
	analysistest.Run(t, analysistest.TestData(t), []*v2plint.Analyzer{v2plint.HotPath},
		"hotpathalloc", "hotpathalloc/simnet", "hotpathneg")
}

func TestHotPathReach(t *testing.T) {
	// "hotpathreach/helper" is listed first so the cross-package edge
	// (root → mid → helper.Grow) resolves against the same type-checked
	// instance — the harness's dependency-first rule. The main package
	// covers one-hop, two-hop/cross-package, interface-resolved, and
	// dynamic findings plus the assume/guarantee and waiver negatives.
	// "hotpathreach/hostscheme" adds the host-cache scheme-family shape:
	// a hot resolve root reaching the install machinery's lazy map
	// allocation, and silent edges into the annotated insert sub-root.
	analysistest.Run(t, analysistest.TestData(t), []*v2plint.Analyzer{v2plint.HotPath},
		"hotpathreach/helper", "hotpathreach", "hotpathreach/hostscheme")
}
