package baselines

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoClosureCapturesAPacket holds the schemes to the one-owner rule
// (simnet.Scheme): a packet that must wait is handed to Engine.Hold,
// never kept in a function literal that runs later. It parses the
// non-test files of this package and of internal/core and fails on a
// function literal that refers to a *packet.Packet parameter or variable
// of its enclosing function. A literal that captures only values read
// off a packet (Bluebird's `vip := p.DstVIP` insert delay) passes.
func TestNoClosureCapturesAPacket(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	for _, dir := range []string{".", "../core"} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					for _, c := range packetCaptures(fd) {
						t.Errorf("%s: a function literal in %s captures packet %s; hand the packet to Engine.Hold instead",
							fset.Position(c.lit.Pos()), fd.Name.Name, c.id.Name)
					}
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("parsed %d files; the test is not looking where the schemes are", checked)
	}
}

// A capture is a function literal and its first reference to a packet
// declared outside it.
type capture struct {
	lit *ast.FuncLit
	id  *ast.Ident
}

// packetCaptures returns, in source order, each function literal in fd
// that refers to a packet declared in fd outside that literal.
func packetCaptures(fd *ast.FuncDecl) []capture {
	var out []capture
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		var first *ast.Ident
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if first != nil || !ok || id.Obj == nil || id.Obj.Kind != ast.Var {
				return first == nil
			}
			decl, ok := id.Obj.Decl.(ast.Node)
			if ok && within(decl, fd) && !within(decl, lit) && isPacket(id, 0) {
				first = id
			}
			return true
		})
		if first != nil {
			out = append(out, capture{lit, first})
		}
		return true // a nested literal is checked on its own
	})
	return out
}

func within(n, outer ast.Node) bool { return outer.Pos() <= n.Pos() && n.End() <= outer.End() }

// isPacket reports whether the variable id names is a *packet.Packet, as
// far as its declaration shows: a parameter or var of that type, or a :=
// from another packet variable or from a packet constructor.
func isPacket(id *ast.Ident, depth int) bool {
	if depth > 8 {
		return false
	}
	switch d := id.Obj.Decl.(type) {
	case *ast.Field:
		return isPacketType(d.Type)
	case *ast.ValueSpec:
		return isPacketType(d.Type)
	case *ast.AssignStmt:
		if len(d.Lhs) != len(d.Rhs) {
			return false
		}
		for i, l := range d.Lhs {
			if l, ok := l.(*ast.Ident); !ok || l.Obj != id.Obj {
				continue
			}
			switch r := d.Rhs[i].(type) {
			case *ast.Ident:
				return r.Obj != nil && r.Obj.Kind == ast.Var && isPacket(r, depth+1)
			case *ast.CallExpr:
				sel, ok := r.Fun.(*ast.SelectorExpr)
				if !ok {
					return false
				}
				switch sel.Sel.Name {
				case "NewData", "NewAck", "NewLearning", "NewInvalidation", "Clone":
					return true
				}
			}
		}
	}
	return false
}

// isPacketType reports whether e spells *packet.Packet.
func isPacketType(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Packet" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "packet"
}
