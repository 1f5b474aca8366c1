package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mlpeering/internal/lint/analysis"
)

// FloatOrder flags floating-point accumulation (+= / -=) into state
// declared outside a nondeterministically-ordered loop: the body of a
// range over a map, or a worker closure handed to internal/par.
// Float addition is not associative, so even when every term is
// visited exactly once, the sum's low bits depend on visit order —
// enough to flip a rounded Jaccard/stability cell between two runs
// that are semantically identical. The fix is to accumulate
// per-shard (or per sorted key) and reduce in a fixed order;
// tolerated cases carry //mlplint:floatorder <reason>.
var FloatOrder = &analysis.Analyzer{
	Name: "floatorder",
	Doc:  "flags float accumulation inside map-ordered loops or par worker closures",
	Run:  runFloatOrder,
}

func runFloatOrder(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		w := newWaivers(pass.Fset, file)
		parLits := collectParClosures(info, file)
		walkStack(file, func(stack []ast.Node, n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok || (asg.Tok != token.ADD_ASSIGN && asg.Tok != token.SUB_ASSIGN) {
				return true
			}
			for _, lhs := range asg.Lhs {
				if !isFloat(info, lhs) {
					continue
				}
				ctx := unorderedContext(info, stack, lhs, parLits)
				if ctx == "" {
					continue
				}
				if w.check(pass, stack, asg, ruleFloatOrder) {
					continue
				}
				pass.Reportf(asg.Pos(), "float accumulation into %s: addition order is %s, so the low bits are nondeterministic; accumulate per shard and reduce in fixed order, or waive with //mlplint:floatorder <reason>", describeLHS(lhs), ctx)
			}
			return true
		})
	}
	return nil
}

// collectParClosures gathers every FuncLit passed directly to a
// function of the internal/par package within file.
func collectParClosures(info *types.Info, file *ast.File) map[*ast.FuncLit]bool {
	lits := make(map[*ast.FuncLit]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isPkgFunc(calleeFunc(info, call), parPkg) {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				lits[lit] = true
			}
		}
		return true
	})
	return lits
}

// unorderedContext walks the ancestor stack innermost-first and
// returns a description of the first nondeterministically-ordered
// construct enclosing the write — provided the write target is
// declared outside it (an accumulator local to the loop body is
// order-safe). Returns "" when the write is ordered.
func unorderedContext(info *types.Info, stack []ast.Node, lhs ast.Expr, parLits map[*ast.FuncLit]bool) string {
	root := rootIdent(lhs)
	if root == nil {
		return ""
	}
	obj := objOf(info, root)
	if obj == nil {
		return ""
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch x := stack[i].(type) {
		case *ast.RangeStmt:
			if rangesOverMap(info, x) && !declaredWithin(obj, x) && !indexedByKey(info, lhs, x) {
				return "the map iteration order"
			}
		case *ast.FuncLit:
			if parLits[x] && !declaredWithin(obj, x) && !indexedWithin(info, lhs, x) {
				return "the worker schedule"
			}
		case *ast.FuncDecl:
			return ""
		}
	}
	return ""
}

func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Float32 || b.Kind() == types.Float64)
}

func describeLHS(e ast.Expr) string {
	if root := rootIdent(e); root != nil {
		return "\"" + root.Name + "\""
	}
	return "a float target"
}
