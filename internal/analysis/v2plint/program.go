package v2plint

import (
	"go/ast"
	"go/token"
	"go/types"
	"time"
)

// A Program accumulates type-checked packages and runs analyzers over
// all of them, so waivers are judged against the whole run's findings.
type Program struct {
	fset *token.FileSet
	pkgs []*progPkg

	timings map[string]time.Duration
}

type progPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// NewProgram returns an empty Program. Every Add must use files
// positioned in fset.
func NewProgram(fset *token.FileSet) *Program {
	return &Program{fset: fset}
}

// EnableTimings makes the Program record per-analyzer wall time,
// retrievable with Timings.
func (p *Program) EnableTimings() {
	if p.timings == nil {
		p.timings = map[string]time.Duration{}
	}
}

// Timings returns a copy of the recorded per-analyzer durations.
func (p *Program) Timings() map[string]time.Duration {
	out := make(map[string]time.Duration, len(p.timings))
	for k, v := range p.timings {
		out[k] = v
	}
	return out
}

// Add queues one type-checked package for Run.
func (p *Program) Add(files []*ast.File, pkg *types.Package, info *types.Info) {
	p.pkgs = append(p.pkgs, &progPkg{files: files, pkg: pkg, info: info})
}

// Run runs the analyzers over every added package, returning all unwaived
// findings in package, then analyzer order (SortFindings gives the output
// order). Findings from the allowreason analyzer are exempt from waiving:
// a waiver cannot excuse itself. When allowreason is among the analyzers,
// waivers that waived nothing in this run are findings too.
func (p *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var allFiles []*ast.File
	for _, pp := range p.pkgs {
		allFiles = append(allFiles, pp.files...)
	}
	allows := collectAllows(p.fset, allFiles)
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pp := range p.pkgs {
		for _, a := range analyzers {
			start := time.Now()
			a.Run(&Pass{
				Analyzer:  a,
				Fset:      p.fset,
				Files:     pp.files,
				Pkg:       pp.pkg,
				TypesInfo: pp.info,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			})
			if p.timings != nil {
				p.timings[a.Name] += time.Since(start)
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer == AllowReason.Name || !allows.waives(p.fset.Position(d.Pos), d.Analyzer) {
			kept = append(kept, d)
		}
	}
	if ran[AllowReason.Name] {
		kept = append(kept, idleWaivers(allows, ran)...)
	}
	return kept
}
