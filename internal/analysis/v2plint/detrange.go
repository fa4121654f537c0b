package v2plint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// DetRange flags `for ... range m` over a map whose body feeds an
// ordering-sensitive sink. Go randomizes map iteration order on
// purpose, so any output, accumulation, or scheduling decision built
// inside such a loop differs from run to run — exactly the
// nondeterminism the simulator's byte-identical-output contract
// forbids.
//
// Sinks recognized:
//   - append to a slice (order of the result leaks the map order)
//   - floating-point += / -= accumulation (addition is not associative)
//   - event scheduling (eventq.Queue.At/After, simnet.Engine
//     injection/send methods)
//   - output emission (fmt print family, csv.Writer, json.Encoder)
//
// The canonical deterministic idiom is exempt: a loop whose body only
// collects the keys into a slice that is subsequently sorted
// (sort.*, slices.Sort*, or a helper whose name contains "sort").
var DetRange = &Analyzer{
	Name: "detrange",
	Doc: "flags range over a map feeding an ordering-sensitive sink " +
		"(append, float accumulation, event scheduling, output emission); " +
		"iterate over sorted keys instead",
	Run: runDetRange,
}

// eventSinkMethods are scheduling/injection methods whose call order
// becomes simulation event order.
var eventSinkMethods = map[string]map[string]bool{
	"eventq": {"At": true, "After": true},
	"simnet": {
		"HostSend": true, "Resend": true, "InjectFromSwitch": true,
	},
}

func runDetRange(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			sink, found := findSink(pass, rs.Body)
			if !found {
				return true
			}
			if isSortedKeyCollection(pass, rs, f) {
				return true
			}
			pass.Reportf(rs.For,
				"nondeterministic iteration over map %s feeds %s; collect and sort the keys first",
				exprString(pass.Fset, rs.X), sink)
			return true
		})
	}
}

// findSink reports the first ordering-sensitive sink in the loop body.
func findSink(pass *Pass, body *ast.BlockStmt) (string, bool) {
	var sink string
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if s, ok := callSink(pass, n); ok {
				sink = s
				return false
			}
		case *ast.AssignStmt:
			if n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN {
				return true
			}
			t := pass.TypesInfo.TypeOf(n.Lhs[0])
			if t == nil {
				return true
			}
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				sink = "a floating-point accumulation"
				return false
			}
		}
		return true
	})
	return sink, sink != ""
}

func callSink(pass *Pass, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[fun]; ok {
			if b, isBuiltin := obj.(*types.Builtin); isBuiltin && b.Name() == "append" {
				return "an append", true
			}
		}
	case *ast.SelectorExpr:
		if fn, pkgPath, ok := pkgFunc(pass.TypesInfo, fun); ok {
			if pkgPath == "fmt" && (len(fn.Name()) >= 5 && (fn.Name()[:5] == "Print" || fn.Name()[:5] == "Fprin")) {
				return "fmt output", true
			}
			return "", false
		}
		name, pkgBase, ok := methodRecvPkgBase(pass.TypesInfo, fun)
		if !ok {
			return "", false
		}
		switch pkgBase {
		case "csv":
			if name == "Write" || name == "WriteAll" {
				return "CSV output", true
			}
		case "json":
			if name == "Encode" {
				return "JSON output", true
			}
		default:
			if methods := eventSinkMethods[pkgBase]; methods[name] {
				return "event scheduling (" + pkgBase + "." + name + ")", true
			}
		}
	}
	return "", false
}

// isSortedKeyCollection recognizes the canonical deterministic idiom:
//
//	for k := range m { keys = append(keys, k) }
//	... sort.Slice(keys, ...) / slices.Sort(keys) / sortKeys(keys) ...
//
// i.e. the body is a single append of the range key, and the collected
// slice is later passed to a sort call in the same file.
func isSortedKeyCollection(pass *Pass, rs *ast.RangeStmt, file *ast.File) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	funIdent, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, isBuiltin := pass.TypesInfo.Uses[funIdent].(*types.Builtin); !isBuiltin || b.Name() != "append" {
		return false
	}
	keyIdent, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := identObj(pass.TypesInfo, keyIdent)
	argIdent, ok := call.Args[1].(*ast.Ident)
	if !ok || keyObj == nil || identObj(pass.TypesInfo, argIdent) != keyObj {
		return false
	}
	sliceIdent, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	sliceObj := identObj(pass.TypesInfo, sliceIdent)
	if sliceObj == nil {
		return false
	}
	return sortedLater(pass, file, sliceObj)
}

// sortedLater reports whether the file contains a sorting call that
// takes the slice variable as an argument: any sort.* or slices.*
// function, or any function or method whose name contains "sort".
func sortedLater(pass *Pass, file *ast.File, slice types.Object) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && identObj(pass.TypesInfo, id) == slice {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return containsSort(fun.Name)
	case *ast.SelectorExpr:
		if _, pkgPath, ok := pkgFunc(pass.TypesInfo, fun); ok {
			if pkgPath == "sort" || pkgPath == "slices" {
				return true
			}
		}
		return containsSort(fun.Sel.Name)
	}
	return false
}

func containsSort(name string) bool {
	for i := 0; i+4 <= len(name); i++ {
		c := name[i]
		if (c == 's' || c == 'S') && name[i+1] == 'o' && name[i+2] == 'r' && name[i+3] == 't' {
			return true
		}
	}
	return false
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}
