// Package lint hosts mlplint's analyzers, the one checker of the
// repo's structural invariants.
//
// The repo's perf story rests on one invariant: world generation and
// propagation are byte-identical for any worker count. The dynamic
// side of that contract is the race-enabled worker-count equivalence
// sweeps; this package is the static side. Each analyzer
// encodes one way the invariant has historically been (or could be)
// broken at the source level:
//
//   - maporder: ordered state built while ranging over a map
//   - rngclock: ambient randomness or wall-clock reads in internal/
//   - sharddiscipline: worker closures writing to shared captures
//   - floatorder: float accumulation in nondeterministically-ordered
//     loops
//
// The second generation covers the concurrency-and-performance half
// of the same contract, driven by source annotations:
//
//   - frozen: //mlplint:frozen types are immutable after publication
//     and born only in their builders, every type an atomic.Pointer
//     publishes is one, and //mlplint:memo fields are set only where
//     their annotation says
//   - guardedby: annotated fields are only touched under their mutex
//   - allocfree: //mlplint:allocfree hot paths contain no allocating
//     constructs (cross-checked against compiler escape analysis by
//     scripts/allocgate.sh)
//
// Two read the module's import graph: orphans (every package under
// internal/ has an importer) and worldwall (no inference package
// reaches a world package).
//
// Deliberate exceptions carry an auditable waiver comment:
//
//	//mlplint:<rule> <reason>
//
// on the flagged line, on the line above it, or in the doc comment of
// the enclosing function (which waives the whole function; frozen and
// allocfree accept only the line forms, since for them a function-doc
// directive is an annotation). A waiver without a reason is itself a
// diagnostic.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mlpeering/internal/lint/analysis"
)

// Analyzers is the full mlplint suite in the order the multichecker
// runs them.
var Analyzers = []*analysis.Analyzer{
	MapOrder,
	RNGClock,
	ShardDiscipline,
	FloatOrder,
	Frozen,
	GuardedBy,
	AllocFree,
	Orphans,
	WorldWall,
}

// waiver rules understood in //mlplint: comments, mapped to the
// analyzer that honors each. frozen, guardedby and allocfree double
// as annotation vocabulary: on a type or constructor doc, on a struct
// field, and on a function doc respectively they opt state *in* to
// checking rather than waiving a finding (see each analyzer's doc).
const (
	ruleOrdered    = "ordered"    // maporder
	ruleRNG        = "rng"        // rngclock (math/rand globals)
	ruleClock      = "clock"      // rngclock (time.Now)
	ruleShared     = "shared"     // sharddiscipline
	ruleFloatOrder = "floatorder" // floatorder
	ruleFrozen     = "frozen"     // frozen
	ruleGuarded    = "guardedby"  // guardedby
	ruleAllocFree  = "allocfree"  // allocfree
	ruleMemo       = "memo"       // frozen (an annotation only)
)

// waivers indexes the //mlplint: comments of one file.
type waivers struct {
	fset *token.FileSet
	// byLine maps line number -> rule -> reason ("" = missing).
	byLine map[int]map[string]string
}

// directive extracts an mlplint directive from a single comment,
// accepting both line (//mlplint:rule reason) and block
// (/*mlplint:rule reason*/) forms. A block comment's directive is
// read from its first line only.
func directive(c *ast.Comment) (rule, reason string, ok bool) {
	text := c.Text
	switch {
	case strings.HasPrefix(text, "//"):
		text = text[2:]
	case strings.HasPrefix(text, "/*"):
		text = strings.TrimSuffix(text[2:], "*/")
	}
	text, ok = strings.CutPrefix(text, "mlplint:")
	if !ok {
		return "", "", false
	}
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		text = text[:i]
	}
	rule, reason, _ = strings.Cut(text, " ")
	return rule, strings.TrimSpace(reason), true
}

// directiveArg returns the text after the first //mlplint:<rule>
// directive of a comment group.
func directiveArg(cg *ast.CommentGroup, rule string) (string, bool) {
	if cg != nil {
		for _, c := range cg.List {
			if r, arg, ok := directive(c); ok && r == rule {
				return arg, true
			}
		}
	}
	return "", false
}

// hasDirective reports whether a comment group carries an
// //mlplint:<rule> directive.
func hasDirective(cg *ast.CommentGroup, rule string) bool {
	_, ok := directiveArg(cg, rule)
	return ok
}

func newWaivers(fset *token.FileSet, file *ast.File) *waivers {
	w := &waivers{fset: fset, byLine: make(map[int]map[string]string)}
	add := func(line int, rule, reason string) {
		m := w.byLine[line]
		if m == nil {
			m = make(map[string]string)
			w.byLine[line] = m
		}
		m[rule] = reason
	}
	for _, cg := range file.Comments {
		end := fset.Position(cg.End()).Line
		for _, c := range cg.List {
			rule, reason, ok := directive(c)
			if !ok {
				continue
			}
			add(fset.Position(c.Pos()).Line, rule, reason)
			// A waiver buried mid-group — a struct field's multi-line
			// doc comment, a block comment above prose — still waives
			// the node below the group, so the line-above lookup must
			// find it on the group's final line too.
			add(end, rule, reason)
		}
	}
	return w
}

// at reports whether rule is waived on the given line exactly.
func (w *waivers) at(line int, rule string) (waived bool, reason string) {
	if m, ok := w.byLine[line]; ok {
		if r, ok := m[rule]; ok {
			return true, r
		}
	}
	return false, ""
}

// waive resolves one matched waiver: a reasonless waiver converts the
// suppressed diagnostic into a live "waiver requires a reason" report;
// a reasoned one is surfaced as a Waived diagnostic so machine
// consumers (mlplint -json) still see the audited exception.
func waive(pass *analysis.Pass, node ast.Node, rule, reason string) {
	if reason == "" {
		pass.Reportf(node.Pos(), "//mlplint:%s waiver requires a reason", rule)
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos:     node.Pos(),
		Message: "waived (" + rule + "): " + reason,
		Waived:  true,
	})
}

// check resolves a would-be diagnostic at node against the waivers:
// a waiver on the node's line or the line above suppresses it, as
// does one anywhere in the doc comment of the enclosing function
// (found via the walk stack). A reasonless waiver converts the
// diagnostic into a "waiver requires a reason" report instead of
// suppressing silently.
func (w *waivers) check(pass *analysis.Pass, stack []ast.Node, node ast.Node, rule string) (suppressed bool) {
	if w.checkLines(pass, node, rule) {
		return true
	}
	for i := len(stack) - 1; i >= 0; i-- {
		fd, ok := stack[i].(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			r, reason, ok := directive(c)
			if !ok || r != rule {
				continue
			}
			waive(pass, node, rule, reason)
			return true
		}
	}
	return false
}

// checkLines is check restricted to the node's line and the line
// above. The frozen and allocfree analyzers use it for site waivers
// because for them a function-doc //mlplint: directive is an
// annotation (builder marking, allocfree opt-in), not a waiver.
func (w *waivers) checkLines(pass *analysis.Pass, node ast.Node, rule string) (suppressed bool) {
	line := w.fset.Position(node.Pos()).Line
	for _, l := range []int{line, line - 1} {
		if ok, reason := w.at(l, rule); ok {
			waive(pass, node, rule, reason)
			return true
		}
	}
	return false
}

// walkStack traverses root depth-first, presenting each node together
// with the stack of its ancestors (outermost first, root excluded
// from its own callback). Returning false skips the node's children.
func walkStack(root ast.Node, fn func(stack []ast.Node, n ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(stack, n) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// rootIdent unwraps selector/index/star/paren chains to the base
// identifier of an lvalue or operand: b.rows[i].buf -> b. Returns nil
// for expressions not rooted in a plain identifier (calls, composite
// literals, package-qualified selectors resolve via their own rules).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object via Uses then Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside node's
// source span.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos &&
		obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// calleeFunc resolves a call's callee to a *types.Func if it is a
// named function or method (not a builtin, conversion, or func
// value).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := objOf(info, id).(*types.Func)
	return fn
}

// builtinName resolves a call to a builtin's name.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	b, ok := objOf(info, id).(*types.Builtin)
	if !ok {
		return "", false
	}
	return b.Name(), true
}

// isPkgFunc reports whether fn is a package-level function (no
// receiver) of a package whose import path matches by full path or
// "/"-suffix. Suffix matching keeps the analyzers working against
// linttest fixture packages that mirror real paths.
func isPkgFunc(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == pkgPath || strings.HasSuffix(p, "/"+pkgPath)
}

// packageFiles returns the syntax of the package at path: the pass's
// own files, or another package's through Pass.Module; nil when the
// load has none.
func packageFiles(pass *analysis.Pass, path string) []*ast.File {
	if path == pass.Pkg.Path() {
		return pass.Files
	}
	if pass.Module == nil {
		return nil
	}
	return pass.Module.PackageFiles(path)
}

// deref returns the element type of a pointer, t itself otherwise.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// internalName is path below its internal/ directory ("core" for
// mlpeering/internal/core), or path itself outside one. Packages under
// internal/ are the determinism contract's jurisdiction; cmd/ and the
// repo root are exempt.
func internalName(path string) string {
	if i := strings.LastIndex("/"+path, "/internal/"); i >= 0 {
		return path[i+len("internal/"):]
	}
	return path
}
