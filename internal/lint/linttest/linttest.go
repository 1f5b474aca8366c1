// Package linttest is a minimal analogue of
// golang.org/x/tools/go/analysis/analysistest for the mlplint suite:
// it type-checks a fixture package under testdata/src/<path>, runs one
// analyzer over it, and matches the reported diagnostics against
// `// want "regexp"` comments in the fixture sources. Fixture imports
// resolve first against testdata/src (so fixtures can mirror real
// packages like internal/par) and then against the standard library.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mlpeering/internal/lint/analysis"
	"mlpeering/internal/lint/load"
)

// Run type-checks testdata/src/<pkgpath>, applies the analyzer, and
// reports via t every mismatch between the live diagnostics and the
// // want expectations (a waiver suppresses a diagnostic, it does not
// rename it). It returns the live diagnostics and the waived ones for
// additional assertions.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpath string) (live, waived []analysis.Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	imp := newFixtureImporter(fset, filepath.Join(testdata, "src"))
	pkg, files, info, err := imp.load(pkgpath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgpath, err)
	}

	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Module:    imp,
		Report: func(d analysis.Diagnostic) {
			if d.Waived {
				waived = append(waived, d)
			} else {
				live = append(live, d)
			}
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, pkgpath, err)
	}
	checkWants(t, fset, files, live)
	return live, waived
}

// PackageFiles implements analysis.Module over the fixture
// cache: any package under testdata/src that has been loaded —
// directly or as an import of the package under test — exposes its
// syntax to annotation-driven analyzers.
func (fi *fixtureImporter) PackageFiles(path string) []*ast.File {
	if p, ok := fi.pkgs[path]; ok && p.err == nil {
		return p.files
	}
	return nil
}

// Imports lists the packages a fixture package's files import.
func (fi *fixtureImporter) Imports(path string) []string { return fi.graph()[path] }

// Importers lists the other fixture packages with a file that imports
// path.
func (fi *fixtureImporter) Importers(path string) []string {
	var out []string
	for pkg, imports := range fi.graph() {
		if pkg != path && slices.Contains(imports, path) {
			out = append(out, pkg)
		}
	}
	slices.Sort(out)
	return out
}

// graph maps every package under the src root to the imports of its
// files, _test.go files included, read on first use.
func (fi *fixtureImporter) graph() map[string][]string {
	if fi.imports != nil {
		return fi.imports
	}
	fi.imports = make(map[string][]string)
	filepath.WalkDir(fi.root, func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(fi.root, filepath.Dir(file))
		pkg := filepath.ToSlash(rel)
		for _, s := range f.Imports {
			path, _ := strconv.Unquote(s.Path.Value)
			fi.imports[pkg] = append(fi.imports[pkg], path)
		}
		return nil
	})
	return fi.imports
}

type want struct {
	rx      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// checkWants cross-checks diagnostics against the `// want` comments:
// every diagnostic must match a want on its line, every want must be
// matched by some diagnostic.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRE.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1) {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					rx, err := regexp.Compile(expr)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", key, expr, err)
						continue
					}
					wants[key] = append(wants[key], &want{rx: rx})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.rx)
			}
		}
	}
}

// fixtureImporter resolves fixture-local packages from a src root and
// everything else from the standard library. One shared stdlib
// importer keeps type identity consistent across fixture packages.
type fixtureImporter struct {
	fset    *token.FileSet
	root    string
	pkgs    map[string]*fixturePkg
	std     types.Importer
	imports map[string][]string // see graph
}

type fixturePkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

// stdImporter is the process-wide stdlib importer, shared so that type
// identity holds across fixture packages.
var stdImporter = sync.OnceValue(importer.Default)

func newFixtureImporter(fset *token.FileSet, root string) *fixtureImporter {
	return &fixtureImporter{
		fset: fset,
		root: root,
		pkgs: make(map[string]*fixturePkg),
		std:  stdImporter(),
	}
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, _, _, err := fi.load(path)
		return pkg, err
	}
	return fi.std.Import(path)
}

func (fi *fixtureImporter) load(path string) (*types.Package, []*ast.File, *types.Info, error) {
	if p, ok := fi.pkgs[path]; ok {
		return p.types, p.files, p.info, p.err
	}
	p := &fixturePkg{}
	fi.pkgs[path] = p

	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		p.err = err
		return nil, nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fi.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			p.err = err
			return nil, nil, nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		p.err = fmt.Errorf("no Go files in %s", dir)
		return nil, nil, nil, p.err
	}

	p.info = load.NewInfo()
	cfg := types.Config{
		Importer: fi,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	p.types, p.err = cfg.Check(path, fi.fset, p.files, p.info)
	return p.types, p.files, p.info, p.err
}
