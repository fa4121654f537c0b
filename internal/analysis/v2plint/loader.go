package v2plint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A LoadedPackage is one parsed and type-checked module package ready
// for analysis.
type LoadedPackage struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// listPackages runs `go list -export -deps -json` over the patterns
// and decodes every package (dependencies included) in the output.
func listPackages(patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-export", "-deps", "-json=Dir,ImportPath,Export,GoFiles,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadPackages type-checks the module packages matched by patterns.
//
// It shells out to `go list -export -deps -json`, which compiles every
// package (and its dependencies, standard library included) into the
// build cache and reports the export-data file for each, then
// type-checks only the matched packages from source, resolving every
// import through compiler export data. This keeps whole-repo lint runs
// fast and avoids re-type-checking the standard library from source.
func LoadPackages(patterns []string) ([]*LoadedPackage, error) {
	pkgs, err := listPackages(patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []*listPkg
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportDataImporter(fset, func(path string) string { return exports[path] })

	var loaded []*LoadedPackage
	for _, t := range targets {
		lp, err := checkPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, lp)
	}
	return loaded, nil
}

// exportDataImporter returns a types.Importer that resolves imports
// from compiler export-data files named by resolve. The "unsafe" path
// is handled by the gc importer itself.
func exportDataImporter(fset *token.FileSet, resolve func(path string) string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := resolve(path)
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// checkPackage parses and type-checks one package from source, with
// imports satisfied by imp.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range goFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &LoadedPackage{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// NewTypesInfo allocates the types.Info maps the analyzers consume.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}
