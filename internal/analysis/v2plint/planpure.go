package v2plint

// PlanPure machine-checks the scenario planner's "pure function of
// (spec, seed)" guarantee (DESIGN.md §9): every planning decision must
// be reproducible from the Spec and the seed alone. The planner is
// *allowed* to materialize its plan — reserve VIPs, register flows,
// schedule events; that is its product — but it must never *read* state
// the run mutates (telemetry values, simnet.Counters) or the wall
// clock, directly or through any callee, because a decision based on
// such a read silently breaks same-seed byte-identity.
//
// Roots are the //v2plint:planpure-annotated functions plus the known
// scenario planner entry points (knownPlanPure, so deleting an
// annotation cannot un-enforce the contract). Direct global-rand use is
// left to the globalrand analyzer (it already covers all non-test
// code); transitive global rand is reported here because the sink may
// be individually waived while still poisoning the planner.
//
// Calls through func values are assumed pure (the trace-generator
// registry dispatch), and closure bodies are opaque — both documented
// soundness limits of the call graph.

import "go/token"

var PlanPure = &Analyzer{
	Name: "planpure",
	Doc: "requires scenario planner entry points (//v2plint:planpure and the " +
		"known ones) to stay pure functions of (spec, seed): no wall-clock " +
		"reads, no global math/rand, no reads of telemetry state or " +
		"simnet.Counters, directly or transitively",
	Run: runPlanPure,
}

// knownPlanPure names the planner entry points checked even without an
// annotation, keyed by package-path base and funcKey.
var knownPlanPure = map[string]map[string]bool{
	"scenario": {
		"planFaults":     true,
		"planPopulation": true,
		"rampWarp":       true,
	},
}

// planPureClasses are the effect classes the planner contract forbids
// transitively, in reporting order.
var planPureClasses = []effectClass{effWallClock, effGlobalRand, effStateRead}

func runPlanPure(pass *Pass) {
	for _, n := range pass.nodes {
		if !n.planRoot {
			continue
		}
		root := funcKey(n.decl)
		type reported struct {
			pos   token.Pos
			class effectClass
		}
		// Seed the dedup set with direct sites: a telemetry method call
		// is both a direct state read and a call edge into a state-
		// reading callee, and must yield one finding, not two.
		seen := map[reported]bool{}
		for _, site := range n.direct[effWallClock] {
			seen[reported{site.pos, effWallClock}] = true
			pass.Reportf(site.pos,
				"planner function %s reads the wall clock (%s); planning must be a pure function of (spec, seed)",
				root, site.Detail)
		}
		for _, site := range n.direct[effStateRead] {
			seen[reported{site.pos, effStateRead}] = true
			pass.Reportf(site.pos,
				"planner function %s reads mutable run state (%s); planning must be a pure function of (spec, seed)",
				root, site.Detail)
		}
		for _, cs := range n.calls {
			for _, tgt := range cs.targets {
				callee := pass.Prog.nodes[tgt.key]
				if callee == nil || callee.planRoot || callee.hotRoot {
					continue
				}
				for _, c := range planPureClasses {
					te := callee.trans[c]
					if te == nil || seen[reported{cs.pos, c}] {
						continue
					}
					seen[reported{cs.pos, c}] = true
					pass.Reportf(cs.pos, "planner function %s reaches %s: %s; planning must be a pure function of (spec, seed)",
						root, effectNoun[c], chainString(root, tgt, te))
				}
			}
		}
	}
}
