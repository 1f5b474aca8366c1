package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"strconv"
	"strings"

	"mlpeering/internal/lint/analysis"
)

// The inference side sees only what the paper's method sees: collector
// archives, looking glasses, the IRR and IXP websites. The world side
// generates and serves those data from the ground truth and wires the
// two together. Packages are named by their path below internal/.
var (
	inferencePackages = []string{"bgp", "mrt", "paths", "ixp", "irr", "lg", "relation", "core"}
	worldPackages     = []string{"topology", "propagate", "churn", "collector", "pipeline"}
)

// WorldWall flags an inference package whose non-test imports reach a
// world package, directly or not: one such import would let inference
// code read the ground truth while every test still passed (a test may
// build a world to feed the inference). The finding sits on the import
// that starts a shortest chain and names the chain.
var WorldWall = &analysis.Analyzer{
	Name: "worldwall",
	Doc:  "flags an inference package (" + strings.Join(inferencePackages, ", ") + ") whose non-test imports reach a world package (" + strings.Join(worldPackages, ", ") + ")",
	Run: func(pass *analysis.Pass) error {
		root := pass.Pkg.Path()
		if pass.Module == nil || !slices.Contains(inferencePackages, internalName(root)) {
			return nil
		}
		// Breadth first from root, so the chain named is a shortest one.
		from := map[string]string{root: ""}
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			pkg := queue[0]
			if !slices.Contains(worldPackages, internalName(pkg)) {
				for _, dep := range pass.Module.Imports(pkg) {
					if _, seen := from[dep]; !seen {
						from[dep] = pkg
						queue = append(queue, dep)
					}
				}
				continue
			}
			chain := []string{internalName(pkg)}
			for ; from[pkg] != root; pkg = from[pkg] {
				chain = append(chain, internalName(from[pkg]))
			}
			chain = append(chain, internalName(root))
			slices.Reverse(chain)
			pass.Reportf(importPos(pass.Files, pkg), "inference package %s reaches world package %s: %s; the inference may read only public data",
				chain[0], chain[len(chain)-1], strings.Join(chain, " -> "))
			return nil
		}
		return nil
	},
}

// Orphans flags a package under internal/ that no other package of the
// module imports, tests of other packages counted: it builds and passes
// its own tests while nothing reaches it.
var Orphans = &analysis.Analyzer{
	Name: "orphans",
	Doc:  "flags a package under internal/ that no other package of the module imports, tests of other packages counted",
	Run: func(pass *analysis.Pass) error {
		path := pass.Pkg.Path()
		if pass.Module != nil && len(pass.Files) > 0 && internalName(path) != path && len(pass.Module.Importers(path)) == 0 {
			pass.Reportf(pass.Files[0].Package, "package %s is imported by no other package of the module: delete it or wire it in", path)
		}
		return nil
	},
}

// importPos returns the position of the first import of path in files,
// or of the first file's package clause when none imports it.
func importPos(files []*ast.File, path string) token.Pos {
	for _, f := range files {
		for _, s := range f.Imports {
			if s.Path.Value == strconv.Quote(path) {
				return s.Pos()
			}
		}
	}
	return files[0].Package
}
