package v2plint

// Call-graph construction for the interprocedural analyzers (hotpath,
// planpure). The graph is built per Program: every added package
// contributes one node per function declaration, each node carrying the
// function's *direct* effects (heap allocation, fmt, wall-clock reads,
// global math/rand, dynamic calls, mutable-state reads) and its
// outgoing call edges. scanFuncEffects is the suite's only detector for
// those constructs. After all packages are added,
// interface calls are resolved against the implements-relation over
// every concrete type the Program has seen, and a fixed-point pass
// collapses the edges into transitive per-function effect summaries,
// each remembering one witness call chain for the diagnostic.
//
// Soundness limits (documented in DESIGN.md §8):
//   - Function-literal bodies are opaque: their effects belong to
//     whoever invokes the closure, which is usually a dynamic call.
//     Creating the closure is itself an allocation effect, and calls
//     through func values are a distinct "dynamic" effect, so hot
//     paths cannot silently hide behind literals — but a planner that
//     stashes impurity inside a closure it later invokes dynamically
//     is not caught. The intraprocedural analyzers (wallclock,
//     globalrand) still see literal bodies as raw syntax.
//   - Interface calls resolve only against concrete types declared in
//     packages added to the same Program (cmd/v2plint loads the whole
//     module into one).
//   - Standard-library callees are classified by direct rules (fmt,
//     time.Now/Since/Until, package-level math/rand) at the call site
//     and otherwise assumed effect-free.
//   - Summaries stop at functions that are themselves contract roots
//     (hot-path or planner roots): those are checked in their own
//     right, so their effects are not propagated into callers
//     (assume/guarantee).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"time"
)

// effectClass enumerates the side-effect classes the graph tracks.
type effectClass int

const (
	effAlloc effectClass = iota
	effFmt
	effWallClock
	effGlobalRand
	effDynamic
	effStateRead
	numEffects
)

// effectNoun is the phrase diagnostics use for an effect class.
var effectNoun = [numEffects]string{
	effAlloc:      "a heap allocation",
	effFmt:        "fmt formatting",
	effWallClock:  "a wall-clock read",
	effGlobalRand: "the global math/rand generator",
	effDynamic:    "a dynamic call",
	effStateRead:  "mutable run state",
}

// A transEffect is one witnessed occurrence of an effect: either direct
// (Chain empty, Detail the construct) or inherited through calls (Chain
// lists the display names from the first callee down to the function
// whose Detail is the terminal construct).
type transEffect struct {
	Chain  []string
	Detail string
	pos    token.Pos
}

// A callTarget is one statically resolved callee of a call site.
type callTarget struct {
	key     string // canonical node key: importPath + "." + funcKey
	display string // pkgbase-qualified name for chain rendering
}

// A callSite is one outgoing call edge of a function.
type callSite struct {
	pos     token.Pos
	targets []callTarget
	// iface/ifaceMethod are set for calls through an interface method;
	// targets is filled from the implements-relation at finalize time.
	iface       *types.Interface
	ifaceMethod string
}

// A funcNode is one function in the call graph.
type funcNode struct {
	key     string
	display string
	decl    *ast.FuncDecl

	hotRoot  bool // //v2plint:hotpath or knownHotPath entry
	planRoot bool // //v2plint:planpure or knownPlanPure entry

	direct [numEffects][]*transEffect // every direct occurrence, source order
	calls  []*callSite
	trans  [numEffects]*transEffect // transitive summary, set by collapse
}

func (n *funcNode) addDirect(c effectClass, pos token.Pos, detail string) {
	n.direct[c] = append(n.direct[c], &transEffect{Detail: detail, pos: pos})
}

// A Program accumulates packages, resolves the call graph across all of
// them, and runs analyzers with the graph attached to each Pass.
type Program struct {
	fset  *token.FileSet
	pkgs  []*progPkg
	nodes map[string]*funcNode // keyed by importPath + "." + funcKey
	final bool

	timings map[string]time.Duration
}

type progPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	nodes []*funcNode // declaration order
}

// NewProgram returns an empty Program. Every Add must use files
// positioned in fset.
func NewProgram(fset *token.FileSet) *Program {
	return &Program{fset: fset, nodes: map[string]*funcNode{}}
}

// EnableTimings makes the Program record per-analyzer (and call-graph)
// wall time, retrievable with Timings.
func (p *Program) EnableTimings() {
	if p.timings == nil {
		p.timings = map[string]time.Duration{}
	}
}

// Timings returns a copy of the recorded per-analyzer durations. The
// "callgraph" entry covers graph construction, interface resolution and
// summary collapse.
func (p *Program) Timings() map[string]time.Duration {
	out := make(map[string]time.Duration, len(p.timings))
	for k, v := range p.timings {
		out[k] = v
	}
	return out
}

func (p *Program) addTiming(name string, start time.Time) {
	if p.timings != nil {
		p.timings[name] += time.Since(start)
	}
}

// Add parses one type-checked package into the graph. All packages must
// be added before Run; adding after Run panics (the summaries would be
// stale).
func (p *Program) Add(files []*ast.File, pkg *types.Package, info *types.Info) {
	if p.final {
		panic("v2plint: Program.Add after Run")
	}
	start := time.Now()
	pkgPath := ""
	if pkg != nil {
		pkgPath = pkg.Path()
	}
	pp := &progPkg{files: files, pkg: pkg, info: info}
	base := path.Base(pkgPath)
	for _, f := range files {
		if isTestFile(p.fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fk := funcKey(fn)
			n := &funcNode{
				key:      pkgPath + "." + fk,
				display:  base + "." + fk,
				decl:     fn,
				hotRoot:  funcAnnotated(fn, "hotpath") || knownHotPath[base][fk],
				planRoot: funcAnnotated(fn, "planpure") || knownPlanPure[base][fk],
			}
			scanFuncEffects(info, n, fn)
			p.nodes[n.key] = n
			pp.nodes = append(pp.nodes, n)
		}
	}
	p.pkgs = append(p.pkgs, pp)
	p.addTiming("callgraph", start)
}

// Run resolves the graph and runs the analyzers over every added
// package, returning all unwaived findings in package, then analyzer
// order (SortFindings gives the output order). Findings from the
// allowreason analyzer are exempt from waiving: a waiver cannot excuse
// itself. When allowreason is among the analyzers, waivers that waived
// nothing in this run are findings too.
func (p *Program) Run(analyzers []*Analyzer) []Diagnostic {
	p.finalize()
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
			pass := &Pass{
				Analyzer:  a,
				Fset:      p.fset,
				Files:     pp.files,
				Pkg:       pp.pkg,
				TypesInfo: pp.info,
				Prog:      p,
				nodes:     pp.nodes,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			a.Run(pass)
			p.addTiming(a.Name, start)
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

// --- finalize: interface resolution + summary collapse ---

func (p *Program) finalize() {
	if p.final {
		return
	}
	p.final = true
	start := time.Now()
	p.resolveInterfaces()
	p.collapse()
	p.addTiming("callgraph", start)
}

// resolveInterfaces fills the targets of interface call sites from the
// implements-relation over every concrete type in the added packages.
func (p *Program) resolveInterfaces() {
	var concrete []*types.Named
	for _, pp := range p.pkgs {
		if pp.pkg == nil {
			continue
		}
		scope := pp.pkg.Scope()
		for _, name := range scope.Names() { // Names is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			concrete = append(concrete, named)
		}
	}
	for _, pp := range p.pkgs {
		for _, n := range pp.nodes {
			for _, cs := range n.calls {
				if cs.iface == nil {
					continue
				}
				seen := map[string]bool{}
				for _, named := range concrete {
					if !types.Implements(named, cs.iface) &&
						!types.Implements(types.NewPointer(named), cs.iface) {
						continue
					}
					obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), cs.ifaceMethod)
					fn, ok := obj.(*types.Func)
					if !ok {
						continue
					}
					key, display := methodKeyOf(fn)
					if key == "" || seen[key] {
						continue
					}
					seen[key] = true
					cs.targets = append(cs.targets, callTarget{key: key, display: display})
				}
				sort.Slice(cs.targets, func(i, j int) bool { return cs.targets[i].key < cs.targets[j].key })
			}
		}
	}
}

// collapse computes transitive summaries by fixed point. A summary is
// first-wins: once a witness chain for an effect class is recorded it
// is never replaced, which keeps chains deterministic (nodes iterate in
// sorted key order) and guarantees termination on recursive graphs.
// Effects do not propagate out of contract-root callees: those are
// checked independently (assume/guarantee).
func (p *Program) collapse() {
	keys := make([]string, 0, len(p.nodes))
	for k := range p.nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := p.nodes[k]
		for c := effectClass(0); c < numEffects; c++ {
			if n.trans[c] == nil && len(n.direct[c]) > 0 {
				n.trans[c] = n.direct[c][0]
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			n := p.nodes[k]
			for _, cs := range n.calls {
				for _, tgt := range cs.targets {
					callee := p.nodes[tgt.key]
					if callee == nil || callee.hotRoot || callee.planRoot {
						continue
					}
					for c := effectClass(0); c < numEffects; c++ {
						if n.trans[c] != nil || callee.trans[c] == nil {
							continue
						}
						chain := make([]string, 0, len(callee.trans[c].Chain)+1)
						chain = append(chain, tgt.display)
						chain = append(chain, callee.trans[c].Chain...)
						n.trans[c] = &transEffect{Chain: chain, Detail: callee.trans[c].Detail, pos: cs.pos}
						changed = true
					}
				}
			}
		}
	}
}

// chainString renders "root → callee → ... → detail" for a finding at a
// call edge to tgt whose summary is te.
func chainString(root string, tgt callTarget, te *transEffect) string {
	s := root + " → " + tgt.display
	for _, link := range te.Chain {
		s += " → " + link
	}
	return s + " → " + te.Detail
}

// --- direct-effect and call-edge scanning ---

// scanFuncEffects records the function's direct effects and outgoing
// call edges. Function-literal bodies are not descended into: creating
// the literal is an allocation effect and invoking it is (usually) a
// dynamic call; the literal's body belongs to whoever runs it.
func scanFuncEffects(info *types.Info, n *funcNode, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			n.addDirect(effAlloc, x.Pos(), "closure")
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					n.addDirect(effAlloc, x.Pos(), "&-composite literal")
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					n.addDirect(effAlloc, x.Pos(), "map literal")
				case *types.Slice:
					n.addDirect(effAlloc, x.Pos(), "slice literal")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if t := info.TypeOf(x); t != nil && isStringType(t) && !isConstExpr(info, x) {
					n.addDirect(effAlloc, x.Pos(), "string concatenation")
				}
			}
		case *ast.SelectorExpr:
			scanStateRead(info, n, x)
		case *ast.CallExpr:
			scanCall(info, n, fn, x)
		}
		return true
	})
}

// scanStateRead records reads of observable mutable run state: fields
// of telemetry types and of simnet.Counters. Structural navigation
// (Engine.Q, Engine.Net, ...) is deliberately not an effect — scheduling
// work is what planners are for; *reading results* is what they must
// not do.
func scanStateRead(info *types.Info, n *funcNode, sel *ast.SelectorExpr) {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	base := path.Base(named.Obj().Pkg().Path())
	if base == "telemetry" || (base == "simnet" && named.Obj().Name() == "Counters") {
		n.addDirect(effStateRead, sel.Pos(),
			fmt.Sprintf("read of %s.%s.%s", base, named.Obj().Name(), v.Name()))
	}
}

func scanCall(info *types.Info, n *funcNode, fn *ast.FuncDecl, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Builtins: make/new allocate, append to a function-local slice
	// cannot amortize into a pooled buffer.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				n.addDirect(effAlloc, call.Pos(), b.Name())
			case "append":
				if name, ok := localAppendDest(info, fn, call); ok {
					n.addDirect(effAlloc, call.Pos(), "append to function-local slice "+name)
				}
			}
			return
		}
	}
	// Conversions are not calls, but T(x) with T an interface boxes x.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			scanBoxing(info, n, tv.Type, call.Args[0])
		}
		return
	}
	// fmt is allocation-heavy (boxing + formatting state): one fmt effect
	// stands for the call, its boxed arguments are not listed on top.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if fnObj, pkgPath, ok := pkgFunc(info, sel); ok && pkgPath == "fmt" {
			n.addDirect(effFmt, call.Pos(), "fmt."+fnObj.Name())
			return
		}
	}
	scanBoxedArgs(info, n, call)

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			key, display := funcKeyOf(obj)
			if key != "" {
				n.calls = append(n.calls, &callSite{pos: call.Pos(), targets: []callTarget{{key, display}}})
			}
		case *types.Var:
			n.addDirect(effDynamic, call.Pos(), "dynamic call through "+fun.Name)
		}
	case *ast.SelectorExpr:
		if fnObj, pkgPath, ok := pkgFunc(info, fun); ok {
			switch {
			case pkgPath == "time" && wallClockFuncs[fnObj.Name()]:
				n.addDirect(effWallClock, call.Pos(), "time."+fnObj.Name())
			case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[fnObj.Name()]:
				n.addDirect(effGlobalRand, call.Pos(), "rand."+fnObj.Name())
			default:
				key, display := funcKeyOf(fnObj)
				if key != "" {
					n.calls = append(n.calls, &callSite{pos: call.Pos(), targets: []callTarget{{key, display}}})
				}
			}
			return
		}
		if m, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if sig, ok := m.Type().(*types.Signature); ok && sig.Recv() != nil {
				if rt := info.TypeOf(fun.X); rt != nil && types.IsInterface(rt) {
					if iface, ok := rt.Underlying().(*types.Interface); ok {
						n.calls = append(n.calls, &callSite{pos: call.Pos(), iface: iface, ifaceMethod: m.Name()})
						return
					}
				}
				key, display := methodKeyOf(m)
				if key != "" {
					if recvPkgBase(m) == "telemetry" {
						n.addDirect(effStateRead, call.Pos(), "call to "+display)
					}
					n.calls = append(n.calls, &callSite{pos: call.Pos(), targets: []callTarget{{key, display}}})
				}
				return
			}
		}
		if v, ok := info.Uses[fun.Sel].(*types.Var); ok {
			if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
				n.addDirect(effDynamic, call.Pos(), "dynamic call through "+selString(fun))
			}
		}
	default:
		// Call of a call result, an index expression, a closure — a
		// func value either way.
		n.addDirect(effDynamic, call.Pos(), "dynamic call through a func value")
	}
}

// localAppendDest reports whether the append destination is a slice
// declared inside fn's body, and its name: such a slice's growth cannot
// be pooled across calls. Appends to struct fields, package variables
// and parameters are the designed pooling idiom (amortized to zero).
func localAppendDest(info *types.Info, fn *ast.FuncDecl, call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := info.Uses[id]
	if obj == nil || !obj.Pos().IsValid() {
		return "", false
	}
	return id.Name, obj.Pos() >= fn.Body.Pos() && obj.Pos() < fn.Body.End()
}

// funcKeyOf canonicalizes a package-level function object.
func funcKeyOf(fn *types.Func) (key, display string) {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return "", ""
	}
	pp := fn.Pkg().Path()
	return pp + "." + fn.Name(), path.Base(pp) + "." + fn.Name()
}

// methodKeyOf canonicalizes a method object by its declaring package
// and receiver base type (matching funcKey on the declaration side).
func methodKeyOf(fn *types.Func) (key, display string) {
	fn = fn.Origin()
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Pkg() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	pp := fn.Pkg().Path()
	k := named.Obj().Name() + "." + fn.Name()
	return pp + "." + k, path.Base(pp) + "." + k
}

// recvPkgBase returns the base element of the package declaring the
// method's receiver type, or "".
func recvPkgBase(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return path.Base(named.Obj().Pkg().Path())
}

// selString renders a selector cheaply for dynamic-call diagnostics.
func selString(sel *ast.SelectorExpr) string {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		return selString(inner) + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
