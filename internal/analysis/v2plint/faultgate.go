package v2plint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// FaultGate enforces the fault-model gating contract from PR 4: the
// forwarding hot path must stay byte-identical to the fault-free build
// whenever no fault is active, which it does by predicating every read
// of engine fault state on `activeFaults > 0`. The invariant that makes
// the gate sound — activeFaults is non-zero iff any faultDown/swDown/
// gwDown flag is set — is maintained by the Set*Fault mutators, so a
// gated read is semantically identical to an ungated one and strictly
// cheaper on the common path.
//
// Checked functions are the known simnet forwarding entry points plus
// anything annotated `//v2plint:hotpath`. Within them, a read of a
// fault-state field (faultDown, swFaults, swDown, gwDown) or a call
// into a `//v2plint:faultpath` helper must be dominated by an
// activeFaults check (a field read or ActiveFaults() call) in an
// enclosing if-condition or on the left of &&. The loss PRNG
// (lossRand) is gated by its own loss-window read instead, since loss
// windows are deliberately excluded from the activeFaults counter.
// Functions annotated `//v2plint:faultpath` are the gated slow-path
// helpers themselves and are exempt — their callers carry the gate.
var FaultGate = &Analyzer{
	Name: "faultgate",
	Doc: "requires forwarding-path reads of engine fault state (swDown, gwDown, " +
		"faultDown, swFaults, lossRand) to be dominated by an activeFaults or " +
		"loss-window check; //v2plint:faultpath marks the gated slow-path helpers",
	Run: runFaultGate,
}

// faultStateFields are the engine/link fields counted by activeFaults.
var faultStateFields = map[string]bool{
	"faultDown": true,
	"swFaults":  true,
	"swDown":    true,
	"gwDown":    true,
}

// knownForwarding names the simnet forwarding-path functions under the
// contract even without a //v2plint:hotpath annotation.
var knownForwarding = map[string]bool{
	"Engine.HostSend":          true,
	"Engine.Resend":            true,
	"Engine.InjectFromSwitch":  true,
	"Engine.switchArrive":      true,
	"Engine.forwardFromSwitch": true,
	"Engine.ecmpForward":       true,
	"Engine.hostArrive":        true,
	"Engine.gatewayProcess":    true,
	"Engine.GatewayFor":        true,
	"link.enqueue":             true,
	"link.startNext":           true,
	"link.Fire":                true,
	"linkEvent.Fire":           true,
}

// knownFaultPath names the reroute helpers exempted (callers gate) even
// without a //v2plint:faultpath annotation.
var knownFaultPath = map[string]bool{
	"Engine.rerouteHop":     true,
	"Engine.rerouteGateway": true,
}

func runFaultGate(pass *Pass) {
	if path.Base(pass.Pkg.Path()) != "simnet" {
		return
	}
	faultpath := map[string]bool{}
	for k := range knownFaultPath {
		faultpath[k] = true
	}
	var checked []*ast.FuncDecl
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			key := funcKey(fn)
			if funcAnnotated(fn, "faultpath") {
				faultpath[key] = true
				continue
			}
			if knownForwarding[key] || funcAnnotated(fn, "hotpath") {
				checked = append(checked, fn)
			}
		}
	}
	for _, fn := range checked {
		if faultpath[funcKey(fn)] {
			continue
		}
		w := &gateWalker{pass: pass, fnName: funcKey(fn), faultpath: faultpath, fixedConds: map[*ast.IfStmt]bool{}}
		w.walk(fn.Body, gateState{})
	}
}

// gateState tracks which gates dominate the node being walked.
type gateState struct {
	fault bool // an activeFaults check dominates
	loss  bool // a loss-window (or activeFaults) check dominates
}

type gateWalker struct {
	pass      *Pass
	fnName    string
	faultpath map[string]bool
	// curIf is the if-statement whose condition is being walked, when
	// any; an ungated read found there gets a suggested fix inserting
	// the gate at the head of that condition.
	curIf *ast.IfStmt
	// fixedConds guards against attaching the gate-insertion fix twice
	// to the same condition (two ungated reads in one cond would
	// otherwise double-insert).
	fixedConds map[*ast.IfStmt]bool
}

func (w *gateWalker) walk(n ast.Node, gs gateState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.IfStmt:
			if m.Init != nil {
				w.walk(m.Init, gs)
			}
			saved := w.curIf
			w.curIf = m
			w.walk(m.Cond, gs)
			w.curIf = saved
			body := gs
			w.condGates(m.Cond, &body)
			w.walk(m.Body, body)
			if m.Else != nil {
				w.walk(m.Else, gs)
			}
			return false
		case *ast.BinaryExpr:
			if m.Op == token.LAND {
				w.walk(m.X, gs)
				rhs := gs
				w.condGates(m.X, &rhs)
				w.walk(m.Y, rhs)
				return false
			}
			return true
		case *ast.SelectorExpr:
			w.checkSelector(m, gs)
			w.walk(m.X, gs)
			return false
		case *ast.CallExpr:
			w.checkCall(m, gs)
			return true
		case *ast.FuncLit:
			// A closure runs later, when the gate's value may differ;
			// it is its own (unchecked) scope.
			return false
		}
		return true
	})
}

// condGates extends gs with the gates established by cond being true.
func (w *gateWalker) condGates(cond ast.Expr, gs *gateState) {
	info := w.pass.TypesInfo
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			switch {
			case isField(info, n, "activeFaults"):
				gs.fault, gs.loss = true, true
			case isField(info, n, "loss"):
				gs.loss = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if name, _, ok := methodRecvPkgBase(info, sel); ok && name == "ActiveFaults" {
					gs.fault, gs.loss = true, true
				}
			}
		}
		return true
	})
}

func (w *gateWalker) checkSelector(sel *ast.SelectorExpr, gs gateState) {
	info := w.pass.TypesInfo
	name := sel.Sel.Name
	switch {
	case faultStateFields[name] && isField(info, sel, name):
		if !gs.fault {
			w.reportUngated(sel, "read of fault state %s.%s must be dominated by an activeFaults check", name)
		}
	case name == "lossRand" && isField(info, sel, name):
		if !gs.loss {
			// No suggested fix: the right gate is the loss-window read,
			// which only the surrounding code can name.
			w.pass.Reportf(sel.Pos(), "use of loss PRNG %s.%s must be dominated by a loss-window or activeFaults check", exprString(w.pass.Fset, sel.X), name)
		}
	}
}

func (w *gateWalker) checkCall(call *ast.CallExpr, gs gateState) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := w.pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	key := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			key = named.Obj().Name() + "." + fn.Name()
		}
	}
	if w.faultpath[key] && !gs.fault {
		w.pass.Reportf(call.Pos(), "call to fault-path helper %s from %s must be dominated by an activeFaults check", key, w.fnName)
	}
}

// reportUngated emits the diagnostic for an ungated fault-state read.
// When the read sits inside an if-condition over an Engine or link
// receiver, it attaches a fix that prefixes the condition with the
// activeFaults gate.
func (w *gateWalker) reportUngated(sel *ast.SelectorExpr, format, fieldName string) {
	msg := func() (string, []any) { return format, []any{exprString(w.pass.Fset, sel.X), fieldName} }
	f, a := msg()
	if w.curIf == nil || w.fixedConds[w.curIf] {
		w.pass.Reportf(sel.Pos(), f, a...)
		return
	}
	prefix, ok := w.gatePrefix(sel.X)
	if !ok {
		w.pass.Reportf(sel.Pos(), f, a...)
		return
	}
	w.fixedConds[w.curIf] = true
	fix := SuggestedFix{
		Message: "gate the condition behind activeFaults",
		Edits: []TextEdit{{
			Pos:     w.curIf.Cond.Pos(),
			NewText: []byte(prefix),
		}},
	}
	// Wrap the original condition when it contains || so the inserted
	// && binds over the whole thing.
	if needsParens(w.curIf.Cond) {
		fix.Edits[0].NewText = []byte(prefix + "(")
		fix.Edits = append(fix.Edits, TextEdit{
			Pos:     w.curIf.Cond.End(),
			NewText: []byte(")"),
		})
	}
	w.pass.ReportfFix(sel.Pos(), fix, f, a...)
}

// gatePrefix builds the `X.activeFaults > 0 && ` prefix for a read
// rooted at base: an Engine receiver gates directly, a link receiver
// gates through its back-pointer l.e.
func (w *gateWalker) gatePrefix(base ast.Expr) (string, bool) {
	t := w.pass.TypesInfo.TypeOf(base)
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	baseStr := exprString(w.pass.Fset, base)
	switch named.Obj().Name() {
	case "Engine":
		return baseStr + ".activeFaults > 0 && ", true
	case "link":
		return baseStr + ".e.activeFaults > 0 && ", true
	}
	return "", false
}

func needsParens(cond ast.Expr) bool {
	b, ok := cond.(*ast.BinaryExpr)
	return ok && b.Op == token.LOR
}

// isField reports whether sel selects a struct field with the given
// name (as opposed to a method or package member).
func isField(info *types.Info, sel *ast.SelectorExpr, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	return ok && v.IsField()
}
