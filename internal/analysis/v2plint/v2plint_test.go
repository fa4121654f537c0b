package v2plint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestRepoIsClean is the determinism contract's gate: the whole module
// must lint clean. Any new time.Now, global-rand, unsorted-map-range or
// unit-mixing violation anywhere in the repo, or a waiver without a
// reason, fails this test with one file:line:col line per finding.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := LoadPackages([]string{"switchv2p/..."})
	if err != nil {
		t.Fatal(err)
	}
	// Tests run in the package directory, three levels below the module
	// root.
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, Analyzers()) {
		pos := pkgs[0].Fset.Position(d.Pos)
		file, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			file = pos.Filename
		}
		t.Errorf("%s:%d:%d: %s: %s", file, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
}

func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		if got := ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v, want %v", a.Name, got, a)
		}
	}
	if got := ByName("nope"); got != nil {
		t.Errorf("ByName(nope) = %v, want nil", got)
	}
}

func TestCollectAllows(t *testing.T) {
	src := `package p

//v2plint:allow wallclock profiling hook
func a() {}

func b() int { return 0 } //v2plint:allow detrange,globalrand reason text

// v2plint:allow simtimeunits spaced comment marker
func d() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allows := collectAllows(fset, []*ast.File{f})
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{3, "wallclock", true},  // annotation line itself
		{4, "wallclock", true},  // line below the annotation
		{5, "wallclock", false}, // two lines below
		{6, "detrange", true},
		{6, "globalrand", true},
		{6, "wallclock", false},
		{9, "simtimeunits", true},
	}
	for _, c := range cases {
		pos := token.Position{Filename: "p.go", Line: c.line}
		if got := allows.waives(pos, c.analyzer); got != c.want {
			t.Errorf("waives(line %d, %s) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

// TestSuiteOrder pins the suite: a rename, removal or addition must be
// a conscious change here too (README's table and DESIGN.md §8 list the
// same names).
func TestSuiteOrder(t *testing.T) {
	want := []string{
		"detrange", "wallclock", "globalrand", "simtimeunits",
		"allowreason",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() has %d entries, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}
