package lint

import (
	"go/ast"
	"go/types"

	"mlpeering/internal/lint/analysis"
)

// ShardDiscipline flags closures handed to the internal/par worker
// pool that write to captured shared variables without deriving the
// write target from the worker's own task. par.Run's contract is
// that tasks own disjoint shards of the mutable state: `results[task]
// = ...` is the sanctioned shape, `shared = append(shared, ...)` or
// `count++` against a capture is a cross-task race whose commit order
// depends on goroutine scheduling — exactly the bug class PR 7's
// buffered-commit design exists to prevent, and the race detector
// only catches when the schedule cooperates. A write is allowed when
// its target is declared inside the closure or is indexed by an
// expression mentioning a closure-local variable (the task parameter
// or anything derived from it). Deliberate exceptions (e.g. a
// mutex-guarded metric) carry //mlplint:shared <reason>.
var ShardDiscipline = &analysis.Analyzer{
	Name: "sharddiscipline",
	Doc:  "flags par worker closures writing to captured state not indexed by their own task",
	Run:  runShardDiscipline,
}

// parPkg is the worker-pool package, matched by path suffix so
// linttest fixtures mirroring the path are caught too.
const parPkg = "internal/par"

func runShardDiscipline(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		w := newWaivers(pass.Fset, file)
		walkStack(file, func(stack []ast.Node, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if !isPkgFunc(fn, parPkg) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkWorkerClosure(pass, w, stack, lit)
				}
			}
			return true
		})
	}
	return nil
}

func checkWorkerClosure(pass *analysis.Pass, w *waivers, stack []ast.Node, lit *ast.FuncLit) {
	// Nested closures are walked too: they share the worker's frame,
	// so their captured writes are judged by the same rule.
	walkStack(lit.Body, func(inner []ast.Node, n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkWorkerWrite(pass, w, stack, inner, lit, x, lhs)
			}
		case *ast.IncDecStmt:
			checkWorkerWrite(pass, w, stack, inner, lit, x, x.X)
		}
		return true
	})
}

func checkWorkerWrite(pass *analysis.Pass, w *waivers, stack, inner []ast.Node, lit *ast.FuncLit, stmt ast.Node, lhs ast.Expr) {
	info := pass.TypesInfo
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := objOf(info, root)
	if obj == nil || declaredWithin(obj, lit) {
		return // closure-local (params included): the task owns it
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	if obj.Parent() == types.Universe || obj.Pkg() == nil {
		return
	}
	if indexedWithin(info, lhs, lit) {
		return // shard selected by the worker's own task
	}
	full := append(append([]ast.Node{}, stack...), inner...)
	if w.check(pass, full, stmt, ruleShared) {
		return
	}
	pass.Reportf(stmt.Pos(), "par worker closure writes to captured %q without indexing by its own task: give each task a disjoint shard (e.g. %s[task]) and commit sequentially, or waive with //mlplint:shared <reason>", root.Name, root.Name)
}

// indexedWithin reports whether any index expression along the
// lvalue chain mentions a variable declared inside scope: for a worker
// closure, the task parameter or a local derived from it, which selects
// the task's own shard. It is too loose for a map range, whose value
// and the locals derived from it can repeat across iterations; the map
// rules use indexedByKey.
func indexedWithin(info *types.Info, lhs ast.Expr, scope ast.Node) bool {
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			if mentionsDeclaredWithin(info, x.Index, scope) {
				return true
			}
			lhs = x.X
		case *ast.SelectorExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		default:
			return false
		}
	}
}

func mentionsDeclaredWithin(info *types.Info, e ast.Expr, scope ast.Node) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil && declaredWithin(obj, scope) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
