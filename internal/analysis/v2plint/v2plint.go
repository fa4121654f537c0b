// Package v2plint is the repo's custom determinism & correctness lint
// suite. The entire evaluation pipeline rests on the simulator being
// bit-for-bit deterministic: identical configs must yield identical
// Reports at any sweep worker count. Go quietly undermines this — map
// iteration order is randomized, global math/rand is shared process
// state, and wall-clock reads leak into simulated time — so the
// contract is machine-checked here rather than left to convention.
//
// The suite keeps only checks that no compiler rule, tier-1 test or
// -race run enforces more directly (DESIGN.md §8 has the verdict table);
// all five are intraprocedural:
//
//   - detrange: flags `range` over a map whose body feeds an
//     ordering-sensitive sink (append, float accumulation, event
//     scheduling, fmt/CSV/JSON emission) unless the keys are collected
//     and sorted first.
//   - wallclock: forbids time.Now/time.Since/time.Until in every
//     internal/ package except internal/analysis.
//   - globalrand: forbids package-level math/rand functions in
//     non-test code; randomness must come from an injected seeded
//     *rand.Rand.
//   - simtimeunits: flags arithmetic or conversions mixing
//     time.Duration with simtime types without going through the
//     explicit simtime.FromStd / .Std() converters.
//   - allowreason: polices the waivers — each //v2plint:allow must carry
//     a justification, name only registered analyzers, and suppress at
//     least one finding of each analyzer it names.
//
// The allocation-free packet path is not linted:
// TestPacketPathSteadyStateAllocFree (internal/simnet) measures it over
// every scheme but controller.
//
// A finding can be waived with a `//v2plint:allow <analyzer> <reason>`
// comment on the offending line or the line directly above it, e.g.
// the profiling hook in internal/simnet/engine.go that deliberately
// measures host wall time. The reason is mandatory: a bare waiver is
// itself a finding (allowreason), and allowreason findings cannot be
// waived.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is self-contained on the standard
// library, so the module needs no external dependencies. It has one
// mode: TestRepoIsClean loads the whole module with LoadPackages and
// passes it to Run, which runs every analyzer over each package.
package v2plint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// An Analyzer describes one lint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //v2plint:allow annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run performs the check over a single package, reporting findings
	// through the pass.
	Run func(*Pass)
}

// A Pass provides one analyzer with the parsed and type-checked
// representation of a single package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one lint finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzers returns the full v2plint suite in stable order;
// allowreason stays last.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRange, WallClock, GlobalRand, SimTimeUnits,
		AllowReason,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run runs the analyzers over every package, returning all unwaived
// findings in package, then analyzer order. The packages must share one
// FileSet, and waivers are judged against the whole run's findings.
// Findings from the allowreason analyzer are exempt from waiving: a
// waiver cannot excuse itself. When allowreason is among the analyzers,
// waivers that waived nothing in this run are findings too.
func Run(pkgs []*LoadedPackage, analyzers []*Analyzer) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	var allFiles []*ast.File
	for _, p := range pkgs {
		allFiles = append(allFiles, p.Files...)
	}
	allows := collectAllows(fset, allFiles)
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, p := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     p.Files,
				Pkg:       p.Pkg,
				TypesInfo: p.Info,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			})
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer == AllowReason.Name || !allows.waives(fset.Position(d.Pos), d.Analyzer) {
			kept = append(kept, d)
		}
	}
	if ran[AllowReason.Name] {
		kept = append(kept, idleWaivers(allows, ran)...)
	}
	return kept
}

// A waiver is one //v2plint:allow annotation: the analyzers it names
// and, per name, whether it suppressed a finding in this run.
type waiver struct {
	pos    token.Pos
	names  []string
	used   []bool
	reason bool // a justification follows the analyzer list
}

// allowSet holds a run's waivers in source order, indexed by file and
// line.
type allowSet struct {
	all    []*waiver
	byLine map[fileLine][]*waiver
}

type fileLine struct {
	file string
	line int
}

// collectAllows scans the files' comments for `//v2plint:allow
// name[,name...] reason` annotations. The reason is free-form text and
// is not interpreted.
func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	out := allowSet{byLine: map[fileLine][]*waiver{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields, ok := allowFields(c)
				if !ok || len(fields) == 0 {
					continue
				}
				w := &waiver{pos: c.Pos(), reason: len(fields) >= 2}
				for _, name := range strings.Split(fields[0], ",") {
					w.names = append(w.names, strings.TrimSpace(name))
				}
				w.used = make([]bool, len(w.names))
				pos := fset.Position(c.Pos())
				at := fileLine{pos.Filename, pos.Line}
				out.byLine[at] = append(out.byLine[at], w)
				out.all = append(out.all, w)
			}
		}
	}
	return out
}

// allowFields parses a comment as a //v2plint:allow annotation and
// returns its whitespace-separated fields (analyzer list first, then
// the reason words), or ok=false when the comment is not an allow
// annotation at all.
func allowFields(c *ast.Comment) ([]string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, "v2plint:allow") {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "v2plint:allow"))
	return strings.Fields(rest), true
}

// waives reports whether an annotation on the diagnostic's line, or the
// line directly above it, waives the analyzer, and marks that
// annotation used.
func (s allowSet) waives(pos token.Position, analyzer string) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, w := range s.byLine[fileLine{pos.Filename, line}] {
			for i, name := range w.names {
				if name == analyzer {
					w.used[i] = true
					return true
				}
			}
		}
	}
	return false
}

// --- shared helpers ---

// isTestFile reports whether the file is a _test.go file; globalrand
// and friends exempt test code.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// pkgFunc resolves sel to a package-level function (no receiver) and
// returns the function and its package path.
func pkgFunc(info *types.Info, sel *ast.SelectorExpr) (*types.Func, string, bool) {
	obj, ok := info.Uses[sel.Sel]
	if !ok {
		return nil, "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil, "", false
	}
	return fn, fn.Pkg().Path(), true
}

// methodRecvPkgBase resolves sel to a method and returns the method
// name and the base element of the package path declaring the
// receiver's named type.
func methodRecvPkgBase(info *types.Info, sel *ast.SelectorExpr) (name, pkgBase string, ok bool) {
	obj, found := info.Uses[sel.Sel]
	if !found {
		return "", "", false
	}
	fn, found := obj.(*types.Func)
	if !found {
		return "", "", false
	}
	sig, found := fn.Type().(*types.Signature)
	if !found || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, found := t.(*types.Named)
	if !found || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return fn.Name(), path.Base(named.Obj().Pkg().Path()), true
}

// namedFromPkg reports whether t is a named type declared in a package
// whose import-path base element is pkgBase.
func namedFromPkg(t types.Type, pkgBase string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && path.Base(obj.Pkg().Path()) == pkgBase
}
