// Package analysistest is the test harness for the v2plint
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest:
// each package under testdata/src is parsed, type-checked, and
// analyzed, and the diagnostics are matched against `// want "regex"`
// comments on the offending lines. A `// want-above "regex"` comment
// matches a diagnostic on the line directly above it instead — needed
// when the offending line already carries another machine-read comment
// (e.g. a //v2plint:allow annotation under test by allowreason).
//
// Imports inside testdata packages resolve first against other
// testdata/src packages (letting tests stub simulation packages like
// simtime or eventq) and then against the standard library, which is
// type-checked from GOROOT source so the harness needs neither network
// access nor precompiled export data.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"switchv2p/internal/analysis/v2plint"
)

// TestData returns the caller's testdata directory (tests run with the
// package directory as working directory).
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	return dir
}

// Run analyzes each named package under testdata/src with the
// analyzers and checks the diagnostics against the package's want
// comments. Every named package goes to one v2plint.Run, so waivers
// are judged against the whole run. Most tests pass one analyzer;
// allowreason's judges waivers against the findings of a second one.
func Run(t *testing.T, testdata string, analyzers []*v2plint.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &testImporter{
		fset: fset,
		src:  filepath.Join(testdata, "src"),
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
	}
	var pkgs []*v2plint.LoadedPackage
	var allFiles []*ast.File
	for _, path := range pkgPaths {
		// Parse with test files included so analyzers' _test.go
		// exemptions are exercised.
		files, err := imp.parseDir(path, true)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		pkg, info := imp.check(path, files)
		pkgs = append(pkgs, &v2plint.LoadedPackage{Fset: fset, Files: files, Pkg: pkg, Info: info})
		allFiles = append(allFiles, files...)
	}
	checkWants(t, fset, allFiles, v2plint.Run(pkgs, analyzers))
}

// testImporter resolves testdata/src packages locally and everything
// else from standard-library source.
type testImporter struct {
	fset *token.FileSet
	src  string
	std  types.Importer
	pkgs map[string]*types.Package
}

func (im *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	if fi, err := os.Stat(filepath.Join(im.src, path)); err == nil && fi.IsDir() {
		files, err := im.parseDir(path, false)
		if err != nil {
			return nil, err
		}
		pkg, _ := im.check(path, files)
		return pkg, nil
	}
	return im.std.Import(path)
}

func (im *testImporter) parseDir(path string, includeTests bool) ([]*ast.File, error) {
	dir := filepath.Join(im.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

// check type-checks tolerantly: testdata for simtimeunits contains
// deliberate wall/simulated mixing that is a type error; the analyzers
// still see operand types.
func (im *testImporter) check(path string, files []*ast.File) (*types.Package, *types.Info) {
	info := v2plint.NewTypesInfo()
	conf := types.Config{Importer: im, Error: func(error) {}}
	pkg, _ := conf.Check(path, im.fset, files, info)
	im.pkgs[path] = pkg
	return pkg, info
}

// --- want-comment matching ---

type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// Patterns may be double-quoted or backquoted Go string literals.
var quotedRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				var rest string
				lineDelta := 0
				switch {
				case strings.HasPrefix(text, "want "):
					rest = text[len("want "):]
				case strings.HasPrefix(text, "want-above "):
					rest = text[len("want-above "):]
					lineDelta = -1
				default:
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRe.FindAllString(rest, -1) {
					raw, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					rx, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line + lineDelta, rx: rx})
				}
			}
		}
	}
	return wants
}

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []v2plint.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched pattern %q", w.file, w.line, w.rx)
		}
	}
}
