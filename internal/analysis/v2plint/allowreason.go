package v2plint

import "fmt"

// AllowReason polices the waiver escape hatch itself: every
// `//v2plint:allow` annotation must name at least one analyzer AND
// carry a free-form justification after the analyzer list, e.g.
//
//	//v2plint:allow wallclock profiling hook measures host time
//
// A waiver without a reason is a finding; a reviewer six months later
// should never have to reverse-engineer why a contract was suspended.
// A justified waiver must also still waive something: one that
// names an analyzer the suite does not have (a typo, a removed
// analyzer) or that suppressed no finding in this run (the finding was
// fixed) is reported by Run through idleWaivers, so suspended
// contracts cannot outlive their cause. Findings from this analyzer are
// exempt from waiving (a waiver cannot excuse itself).
var AllowReason = &Analyzer{
	Name: "allowreason",
	Doc: "requires every //v2plint:allow waiver to carry a justification, to name " +
		"only registered analyzers, and to suppress at least one finding of each; " +
		"these findings cannot themselves be waived",
	Run: runAllowReason,
}

// idleWaivers reports, for every justified waiver (bare ones are
// runAllowReason's), each name that is not a registered analyzer and
// each name whose analyzer ran without the waiver suppressing a finding.
func idleWaivers(allows allowSet, ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, w := range allows.all {
		if !w.reason {
			continue
		}
		for i, name := range w.names {
			var msg string
			switch {
			case ByName(name) == nil:
				msg = fmt.Sprintf("//v2plint:allow waiver names unknown analyzer %q; it waives nothing", name)
			case ran[name] && !w.used[i]:
				msg = fmt.Sprintf("//v2plint:allow %s waiver suppressed no finding on its line or the next; delete it", name)
			default:
				continue
			}
			out = append(out, Diagnostic{Pos: w.pos, Analyzer: AllowReason.Name, Message: msg})
		}
	}
	return out
}

func runAllowReason(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields, ok := allowFields(c)
				if !ok || len(fields) >= 2 {
					continue
				}
				msg := "//v2plint:allow waiver names analyzers but no reason; append a justification after the analyzer list"
				if len(fields) == 0 {
					msg = "//v2plint:allow waiver names no analyzer and no reason; write `//v2plint:allow <analyzer> <reason>`"
				}
				pass.Reportf(c.Pos(), "%s", msg)
			}
		}
	}
}
