// Package load type-checks the packages of this module for the lint
// analyzers without depending on golang.org/x/tools/go/packages: it
// shells out to `go list -export -deps -json` for the packages and
// compiler export data (produced offline from the build cache), and
// once more, without export data, for the module's import graph; it
// parses the target packages' sources and resolves every import —
// stdlib and intra-module alike — through the gc export-data importer
// so each package type-checks against a self-consistent universe.
package load

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
	"runtime"
	"slices"
	"sort"
	"strings"
)

// Package is one type-checked target package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is one load, an analysis.Module: the type-checked target
// packages, sorted by import path, and the import graph of every
// package of the main module, whatever the patterns, so that a graph
// rule sees importers outside them too.
type Module struct {
	Packages []*Package

	files              map[string][]*ast.File
	imports, importers map[string][]string
}

// PackageFiles, Imports and Importers implement analysis.Module.
func (m *Module) PackageFiles(path string) []*ast.File { return m.files[path] }
func (m *Module) Imports(path string) []string         { return m.imports[path] }
func (m *Module) Importers(path string) []string       { return m.importers[path] }

type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }

	Imports, TestImports, XTestImports []string
}

// goList runs `go list -json=<fields> <args>` and decodes its output.
func goList(fields string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=" + fields + ",Error"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errb.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// Load lists the packages matching patterns (plus their dependency
// closure for export data), parses and type-checks every non-dep-only
// module package, and lists the main module's import graph.
func Load(patterns []string) (*Module, error) {
	listed, err := goList("ImportPath,Dir,GoFiles,CgoFiles,Standard,DepOnly,Export,Module", append([]string{"-export", "-deps", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	// The gc importer resolves every import, "unsafe" included, from
	// the export data go list produced.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	m := &Module{files: make(map[string][]*ast.File), imports: make(map[string][]string), importers: make(map[string][]string)}
	modPath := ""
	for i := range listed {
		t := &listed[i]
		if t.DepOnly || t.Standard {
			continue
		}
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		m.Packages = append(m.Packages, pkg)
		m.files[pkg.Path] = pkg.Files
		if t.Module != nil {
			modPath = t.Module.Path
		}
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].Path < m.Packages[j].Path })
	if modPath == "" {
		return m, nil
	}

	graph, err := goList("ImportPath,Imports,TestImports,XTestImports", "--", modPath+"/...")
	if err != nil {
		return nil, err
	}
	for _, p := range graph {
		m.imports[p.ImportPath] = p.Imports
		for _, dep := range slices.Concat(p.Imports, p.TestImports, p.XTestImports) {
			if by := m.importers[dep]; dep != p.ImportPath && (len(by) == 0 || by[len(by)-1] != p.ImportPath) {
				m.importers[dep] = append(by, p.ImportPath)
			}
		}
	}
	return m, nil
}

func check(fset *token.FileSet, imp types.Importer, t *listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range append(append([]string{}, t.GoFiles...), t.CgoFiles...) {
		path := filepath.Join(t.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	var typeErrs []string
	cfg := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, err := cfg.Check(t.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-check %s:\n  %s", t.ImportPath, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", t.ImportPath, err)
	}
	return &Package{
		Path:  t.ImportPath,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
