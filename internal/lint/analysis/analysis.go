// Package analysis is a minimal, dependency-free skeleton of the
// golang.org/x/tools/go/analysis API: an Analyzer is a named check
// with a Run function, a Pass hands it one type-checked package, and
// diagnostics are reported through a callback. It exists because this
// module is intentionally stdlib-only; the surface mirrors x/tools
// closely enough that the analyzers in internal/lint could be ported
// to the real multichecker by swapping this import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //mlplint: waiver comments.
	Name string
	// Doc is a one-paragraph description of the invariant the
	// analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. Safe to call multiple times;
	// the driver orders and deduplicates output.
	Report func(Diagnostic)
	// Module, when non-nil, exposes the rest of the load (the x/tools
	// Facts mechanism's poor cousin). Analyzers that honor
	// cross-package annotations degrade to same-package analysis
	// without it; the graph rules need it.
	Module Module
}

// Module resolves an import path to the parsed files of that package,
// or nil when the driver has no syntax for it (dependencies loaded
// from export data, the standard library), and to its place in the
// module's import graph.
type Module interface {
	PackageFiles(path string) []*ast.File
	// Imports lists the packages path imports in its non-test files.
	Imports(path string) []string
	// Importers lists the other packages of the module whose files,
	// test files included, import path.
	Importers(path string) []string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Waived marks a finding suppressed by an audited
	// //mlplint:<rule> <reason> comment. Waived diagnostics carry the
	// waiver's reason in Message, do not fail the build, and exist so
	// machine consumers (mlplint -json) can see the full audited
	// exception set, not just the live findings.
	Waived bool
}
