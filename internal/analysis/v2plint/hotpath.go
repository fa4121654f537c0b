package v2plint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath enforces the allocation-free hot-path contract of the
// simulator's event loop (PR 3 measured a 9.1x run-alloc win; this pins
// it). A function is a hot-path root when its doc comment carries a
// `//v2plint:hotpath` marker, or when it is one of the known
// serializer/ECMP/eventq entry points — the known set means deleting an
// annotation cannot silently un-enforce the core of the contract.
//
// The analyzer is a reader of the call graph's effect scan
// (scanFuncEffects), which is the only place the constructs are
// detected. Inside a root body it reports every direct effect: function
// literals, map and slice composite literals, &T{...} literals,
// make/new, calls into package fmt, non-constant string concatenation,
// boxing a non-pointer-shaped value into an interface, append whose
// destination is a slice declared inside the function (growth cannot
// amortize into a pooled buffer), wall-clock reads, global math/rand,
// and dynamic calls through func values (the graph cannot be followed
// through those, so they must be waived with a reason or redesigned).
// Value-typed struct literals and appends to fields or parameters are
// allowed: those are exactly the pooling idioms the hot path is built
// on. At every call edge out of a root it reports the callee's
// transitive effects with the witness chain, e.g.
//
//	ecmpForward → simnet.helperX → fmt.Sprintf
//
// Edges into functions that are themselves hot-path roots are skipped:
// those are checked in their own right (assume/guarantee), which keeps
// one defect one finding.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "requires //v2plint:hotpath functions and the known serializer/ECMP/eventq " +
		"entry points, and everything they transitively call, to be free of heap " +
		"allocation (closures, map/slice literals, make/new, interface boxing, string " +
		"concatenation, appends to function-local slices), fmt, wall-clock reads, " +
		"global math/rand and dynamic calls; reports the witness call chain",
	Run: runHotPath,
}

// knownHotPath names the entry points checked even without an
// annotation, keyed by package-path base and funcKey.
var knownHotPath = map[string]map[string]bool{
	"simnet": {
		"link.enqueue":       true,
		"link.startNext":     true,
		"link.grow":          true,
		"link.Fire":          true,
		"linkEvent.Fire":     true,
		"Engine.ecmpForward": true,
	},
	"eventq": {
		"Queue.AtTimed":    true,
		"Queue.AfterTimed": true,
		"Queue.Step":       true,
	},
}

// hotPathClasses are the effect classes the hot-path contract forbids,
// in reporting order.
var hotPathClasses = []effectClass{effAlloc, effFmt, effWallClock, effGlobalRand, effDynamic}

func runHotPath(pass *Pass) {
	for _, n := range pass.nodes {
		if !n.hotRoot {
			continue
		}
		root := funcKey(n.decl)
		for _, c := range hotPathClasses {
			for _, site := range n.direct[c] {
				pass.Reportf(site.pos, "%s", hotDirectMessage(c, root, site.Detail))
			}
		}
		type reported struct {
			pos   token.Pos
			class effectClass
		}
		seen := map[reported]bool{}
		for _, cs := range n.calls {
			for _, tgt := range cs.targets {
				callee := pass.Prog.nodes[tgt.key]
				if callee == nil || callee.hotRoot {
					continue
				}
				for _, c := range hotPathClasses {
					te := callee.trans[c]
					if te == nil || seen[reported{cs.pos, c}] {
						continue
					}
					seen[reported{cs.pos, c}] = true
					pass.Reportf(cs.pos, "hot-path function %s reaches %s: %s",
						root, effectNoun[c], chainString(root, tgt, te))
				}
			}
		}
	}
}

// hotDirectMessage words a finding for an effect sitting in the root's
// own body (detail is the scan's name for the construct).
func hotDirectMessage(c effectClass, root, detail string) string {
	switch c {
	case effAlloc:
		if detail == "closure" {
			return "closure in hot-path function " + root + " allocates per call; use a pooled typed event (eventq.Timed) instead"
		}
		return detail + " in hot-path function " + root + " heap-allocates per call; allocate at construction time or reuse a pooled record"
	case effFmt:
		return "fmt call in hot-path function " + root + " allocates per call (" + detail + "); move formatting off the hot path"
	case effDynamic:
		return "hot-path function " + root + " makes a " + detail + "; the hot path must be statically resolvable (direct, method, or interface call)"
	default:
		return "hot-path function " + root + " reaches " + effectNoun[c] + ": " + root + " → " + detail
	}
}

// scanBoxedArgs records an allocation effect for every argument of an
// ordinary call that is boxed into an interface-typed parameter.
func scanBoxedArgs(info *types.Info, n *funcNode, call *ast.CallExpr) {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		scanBoxing(info, n, pt, arg)
	}
}

// scanBoxing records an allocation effect when assigning arg to a
// parameter/target of type to would box a non-pointer-shaped concrete
// value into an interface. Pointer-shaped values (pointers, channels,
// maps, funcs, unsafe pointers) convert without allocating, as do nil,
// values that are already interfaces, and constants (boxed once into
// static data).
func scanBoxing(info *types.Info, n *funcNode, to types.Type, arg ast.Expr) {
	if to == nil || !types.IsInterface(to) {
		return
	}
	at := info.TypeOf(arg)
	if at == nil || types.IsInterface(at) || isConstExpr(info, arg) || pointerShaped(at) {
		return
	}
	if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	n.addDirect(effAlloc, arg.Pos(), "boxing "+at.String()+" into interface "+to.String())
}

// pointerShaped reports whether values of t fit in an interface word
// without heap allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether the expression has a compile-time
// constant value (constant folding means it never allocates at run
// time).
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
