package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"mlpeering/internal/lint/analysis"
)

// MapOrder flags `for range` over a map whose body writes to ordered,
// committed state: appending to a slice declared outside the loop,
// sending on a channel, emitting output (fmt.Print*/Fprint*, Write*
// methods on outer writers), or calling event-emitting methods on
// outer receivers. Go randomizes map iteration order, so any of these
// makes the committed artifact depend on the iteration — the exact
// bug class the worker-sweep equivalence tests exist to catch
// dynamically.
//
// Three escapes: appends whose target slice is passed to a sort (or a
// locally-defined *sort*/*canon* helper) after the loop are the
// sorted-key-extraction idiom and pass; so do appends into the cells of
// a map that a later loop over that same map sorts cell by cell (`for _,
// v := range m { slices.Sort(v) }`); anything deliberate carries
// //mlplint:ordered <reason>.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags range-over-map loops that write to ordered state without a post-loop sort",
	Run:  runMapOrder,
}

func runMapOrder(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		w := newWaivers(pass.Fset, file)
		walkStack(file, func(stack []ast.Node, n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !rangesOverMap(pass.TypesInfo, rng) {
				return true
			}
			if w.check(pass, stack, rng, ruleOrdered) {
				return true // still recurse: nested loops judged on their own
			}
			checkMapRangeBody(pass, stack, rng)
			return true
		})
	}
	return nil
}

func rangesOverMap(info *types.Info, rng *ast.RangeStmt) bool {
	return isMap(info, rng.X)
}

// isMap reports whether e's type is a map.
func isMap(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// eventMethods are method names on outer receivers that commit to an
// ordered stream; calling them per map key is order-dependent.
var eventMethods = map[string]bool{
	"Emit": true, "Push": true, "PushBack": true, "Enqueue": true,
	"Publish": true, "Append": true, "Record": true,
}

// writerMethods write bytes to an output in call order.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Fprintf": true, "Printf": true,
}

func checkMapRangeBody(pass *analysis.Pass, stack []ast.Node, rng *ast.RangeStmt) {
	info := pass.TypesInfo
	// appended maps each outer slice object appended to inside the
	// loop to the position of the first append and the map whose cells
	// each append went to (nil for an append outside a map cell),
	// pending the post-loop sort check.
	type appendSite struct {
		at    ast.Node
		cells []ast.Expr
	}
	appended := make(map[types.Object]*appendSite)

	walkStack(rng.Body, func(inner []ast.Node, n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // deferred work; judged where it runs
		case *ast.SendStmt:
			if !waivedInner(pass, stack, inner, x, ruleOrdered) {
				pass.Reportf(x.Pos(), "channel send inside range over map: receive order depends on map iteration; iterate sorted keys or waive with //mlplint:ordered <reason>")
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) || i >= len(x.Lhs) {
					continue
				}
				root := rootIdent(x.Lhs[i])
				if root == nil {
					continue
				}
				obj := objOf(info, root)
				if obj == nil || declaredWithin(obj, rng) {
					continue
				}
				if indexedByKey(info, x.Lhs[i], rng) {
					continue // per-key cell: commutative across iterations
				}
				if !waivedInner(pass, stack, inner, x, ruleOrdered) {
					site := appended[obj]
					if site == nil {
						site = &appendSite{at: x}
						appended[obj] = site
					}
					site.cells = append(site.cells, cellMap(info, x.Lhs[i]))
				}
			}
		case *ast.CallExpr:
			checkMapRangeCall(pass, stack, inner, rng, x)
		}
		return true
	})

	fnBody := enclosingFuncBody(stack)
	unsorted := func(m ast.Expr) bool { return !cellsSortedAfter(info, fnBody, m, rng.End()) }
	for obj, site := range appended {
		if fnBody != nil && (sortedAfter(info, fnBody, obj, rng.End()) || !slices.ContainsFunc(site.cells, unsorted)) {
			continue
		}
		pass.Reportf(site.at.Pos(), "append to %q inside range over map: element order depends on map iteration; sort %q after the loop, iterate sorted keys, or waive with //mlplint:ordered <reason>", obj.Name(), obj.Name())
	}
}

// cellMap returns the map whose cell lhs is, when lhs indexes a map
// (acc[v], s.cells[v]), and nil otherwise.
func cellMap(info *types.Info, lhs ast.Expr) ast.Expr {
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMap(info, ix.X) {
		return ix.X
	}
	return nil
}

// cellsSortedAfter reports whether a range over the map m positioned
// after pos within body sorts its value — each cell of m — in its body:
// the per-cell form of the post-loop sort. The map must be the same
// expression over the same root variable.
func cellsSortedAfter(info *types.Info, body *ast.BlockStmt, m ast.Expr, pos token.Pos) bool {
	root := rootIdent(m) // nil for nil m
	if root == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok || rng.Pos() < pos {
			return true
		}
		v, ok := rng.Value.(*ast.Ident)
		if !ok || types.ExprString(rng.X) != types.ExprString(m) {
			return true
		}
		if r := rootIdent(rng.X); r == nil || objOf(info, r) != objOf(info, root) {
			return true
		}
		if obj := objOf(info, v); obj != nil && sortedAfter(info, rng.Body, obj, rng.Body.Pos()) {
			found = true
		}
		return !found
	})
	return found
}

// indexedByKey reports whether an index along the lvalue chain is the
// range's key itself. Only the key names a distinct cell on every
// iteration, so only appends into key-indexed cells commute; a cell
// indexed by the value, or by anything derived from it, may be appended
// to by several iterations, in iteration order.
func indexedByKey(info *types.Info, lhs ast.Expr, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	obj := objOf(info, key)
	if obj == nil {
		return false // the blank key
	}
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			if id, ok := ast.Unparen(x.Index).(*ast.Ident); ok && objOf(info, id) == obj {
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

func checkMapRangeCall(pass *analysis.Pass, stack, inner []ast.Node, rng *ast.RangeStmt, call *ast.CallExpr) {
	info := pass.TypesInfo
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			if !waivedInner(pass, stack, inner, call, ruleOrdered) {
				pass.Reportf(call.Pos(), "fmt.%s inside range over map: output order depends on map iteration; iterate sorted keys or waive with //mlplint:ordered <reason>", fn.Name())
			}
		}
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return // package-qualified call, not a method
	}
	name := fn.Name()
	if !eventMethods[name] && !writerMethods[name] {
		return
	}
	root := rootIdent(sel.X)
	if root == nil {
		return
	}
	obj := objOf(info, root)
	if obj == nil || declaredWithin(obj, rng) {
		return
	}
	if indexedByKey(info, sel.X, rng) {
		return // per-key receiver: commutative across iterations
	}
	if !waivedInner(pass, stack, inner, call, ruleOrdered) {
		pass.Reportf(call.Pos(), "%s.%s inside range over map commits in iteration order; iterate sorted keys or waive with //mlplint:ordered <reason>", root.Name, name)
	}
}

// waivedInner applies waivers to a node nested inside the range body,
// seeing both the outer walk stack and the body-relative stack.
func waivedInner(pass *analysis.Pass, stack, inner []ast.Node, n ast.Node, rule string) bool {
	file := stack[0].(*ast.File)
	w := newWaivers(pass.Fset, file)
	full := append(append([]ast.Node{}, stack...), inner...)
	return w.check(pass, full, n, rule)
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := objOf(info, id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// enclosingFuncBody returns the body of the innermost function on the
// stack, or nil at file scope.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

// sortedAfter reports whether obj is passed to a sorting call
// positioned after pos within body: sort.* and slices.Sort* qualify,
// as does any function or method whose name contains "sort" or
// "canon" (case-insensitive), covering local canonicalization
// helpers.
func sortedAfter(info *types.Info, body *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if !isSortingCallee(info, call) {
			return true
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil && objOf(info, root) == obj {
				found = true
				return false
			}
		}
		// method form: keys.Sort()
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if root := rootIdent(sel.X); root != nil && objOf(info, root) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isSortingCallee(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
		return true
	}
	return containsFold(fn.Name(), "sort") || containsFold(fn.Name(), "canon")
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		ok := true
		for j := 0; j < len(sub); j++ {
			c := s[i+j] | 0x20
			if c != sub[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
