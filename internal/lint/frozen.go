package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"mlpeering/internal/lint/analysis"
)

// Frozen enforces publish-then-freeze: a type annotated
// //mlplint:frozen is never written after publication. Field stores,
// element writes, append-into, delete and clear through any pointer to
// a frozen type are flagged — aliases included, since the check is
// type-driven — outside builders, the functions annotated
// //mlplint:frozen. A frozen value is born only in a builder: a
// composite literal of a frozen type elsewhere is flagged, and so is a
// function returning the result of a builder of its package without
// being one. Which types must be frozen follows from the types: the
// readers of an atomic.Pointer[T] never synchronize, so T and every
// named type reachable from it through pointer fields and pointer
// slice, array or map elements must be.
//
// A field whose doc carries //mlplint:memo Fn1,Fn2 is set only by the
// named functions of its package: an assignment to it or its
// elements, an address-take or a composite literal setting it is
// flagged anywhere else, builders included.
//
// Annotations are read across the load via Pass.Module. Site waivers
// use //mlplint:frozen <reason> on the flagged line or the line above.
var Frozen = &analysis.Analyzer{
	Name: "frozen",
	Doc:  "flags writes to //mlplint:frozen types outside their builders, frozen values born outside one, unfrozen types behind an atomic.Pointer, and //mlplint:memo fields set outside their named functions",
	Run:  runFrozen,
}

func runFrozen(pass *analysis.Pass) error {
	f := &frozenDecls{pass: pass, scanned: make(map[string]bool), types: make(map[string]bool), memos: make(map[string][]string)}
	builders := make(map[token.Pos]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hasDirective(fd.Doc, ruleFrozen) {
				builders[fd.Name.Pos()] = true
			}
		}
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		w := newWaivers(pass.Fset, file)
		report := func(node ast.Node, format string, args ...any) {
			if !w.checkLines(pass, node, ruleFrozen) {
				pass.Reportf(node.Pos(), format, args...)
			}
		}
		for _, decl := range file.Decls {
			fn, builder := "a package-level declaration", false
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn, builder = fd.Name.Name, builders[fd.Name.Pos()]
			}
			store := func(e ast.Expr, verb string) { f.checkStore(report, e, verb, fn, builder) }
			walkStack(decl, func(stack []ast.Node, n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						store(lhs, "write")
					}
				case *ast.IncDecStmt:
					store(x.X, "write")
				case *ast.CallExpr:
					if name, ok := builtinName(info, x); ok && (name == "delete" || name == "clear") && len(x.Args) > 0 {
						store(x.Args[0], name)
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						f.checkStore(report, x.X, "address-take", fn, true)
					}
				case *ast.CompositeLit:
					named, _ := deref(info.TypeOf(x)).(*types.Named)
					if name, ok := f.typeName(named); ok && !builder {
						report(x, "new %s outside a //mlplint:frozen builder; build it in one", name)
					}
					st, _ := deref(info.TypeOf(x)).Underlying().(*types.Struct)
					for i, elt := range x.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								f.checkMemo(report, elt, named, id.Name, "composite-literal set", fn)
							}
						} else if st != nil && i < st.NumFields() {
							f.checkMemo(report, elt, named, st.Field(i).Name(), "composite-literal set", fn)
						}
					}
				case *ast.ReturnStmt:
					if builder || slices.ContainsFunc(stack, func(n ast.Node) bool { _, ok := n.(*ast.FuncLit); return ok }) {
						break // a closure's result has no declaration to annotate
					}
					for _, r := range x.Results {
						if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
							if callee := calleeFunc(info, call); callee != nil && builders[callee.Pos()] {
								report(r, "returns what builder %s makes; annotate this function //mlplint:frozen too", callee.Name())
							}
						}
					}
				case *ast.IndexExpr:
					named, ok := info.Types[x].Type.(*types.Named)
					if ok && info.Types[x].IsType() && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic" && named.Obj().Name() == "Pointer" {
						f.checkPublished(report, x, named.TypeArgs().At(0))
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkStore walks the lvalue chain of e: the first step that
// dereferences a pointer to a frozen type is a write through it
// (unless frozenOK), and every memo field selected on the way is set.
func (f *frozenDecls) checkStore(report func(ast.Node, string, ...any), e ast.Expr, verb, fn string, frozenOK bool) {
	for {
		var base ast.Expr
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			base = x.X
			if sel := f.pass.TypesInfo.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				owner := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					owner = deref(owner).Underlying().(*types.Struct).Field(i).Type()
				}
				named, _ := deref(owner).(*types.Named)
				f.checkMemo(report, x, named, x.Sel.Name, verb, fn)
			}
		case *ast.IndexExpr:
			base = x.X
		case *ast.StarExpr:
			base = x.X
		default:
			return
		}
		if ptr, ok := f.pass.TypesInfo.TypeOf(base).(*types.Pointer); ok && !frozenOK {
			named, _ := ptr.Elem().(*types.Named)
			if name, ok := f.typeName(named); ok {
				report(ast.Unparen(e), "%s through frozen *%s after publication; mutate only inside a //mlplint:frozen builder or waive with //mlplint:frozen <reason>", verb, name)
				frozenOK = true
			}
		}
		e = base
	}
}

// checkMemo reports node when field of owner is a memo field that
// fn, in the pass's package, may not set.
func (f *frozenDecls) checkMemo(report func(ast.Node, string, ...any), node ast.Node, owner *types.Named, field, verb, fn string) {
	if owner == nil || owner.Obj().Pkg() == nil {
		return
	}
	path := owner.Obj().Pkg().Path()
	f.scan(path)
	field = owner.Obj().Name() + "." + field
	if names, ok := f.memos[path+"."+field]; ok && (path != f.pass.Pkg.Path() || !slices.Contains(names, fn)) {
		report(node, "memo field %s: %s in %s; //mlplint:memo allows only %s", field, verb, fn, strings.Join(names, ", "))
	}
}

// checkPublished reports, at the atomic.Pointer[T] expression at, T
// and every named type reachable from it through pointer fields and
// pointer slice, array or map elements that lacks //mlplint:frozen.
// Types of packages the load has no syntax for (the standard library)
// are not judged.
func (f *frozenDecls) checkPublished(report func(ast.Node, string, ...any), at ast.Node, t types.Type) {
	seen := make(map[*types.Named]bool)
	var visit func(n *types.Named, via string)
	visit = func(n *types.Named, via string) {
		if n == nil || seen[n] || n.Obj().Pkg() == nil || packageFiles(f.pass, n.Obj().Pkg().Path()) == nil {
			return
		}
		seen[n] = true
		if _, ok := f.typeName(n); !ok {
			report(at, "atomic.Pointer publishes %s%s without //mlplint:frozen: its readers never synchronize, so nothing they reach may change", types.TypeString(n, (*types.Package).Name), via)
		}
		st, ok := n.Underlying().(*types.Struct)
		for i := 0; ok && i < st.NumFields(); i++ {
			ft := st.Field(i).Type().Underlying()
			switch u := ft.(type) {
			case *types.Slice:
				ft = u.Elem().Underlying()
			case *types.Array:
				ft = u.Elem().Underlying()
			case *types.Map:
				ft = u.Elem().Underlying()
			}
			if p, isPtr := ft.(*types.Pointer); isPtr {
				next, _ := p.Elem().(*types.Named)
				visit(next, " (reached through "+types.TypeString(n, (*types.Package).Name)+"."+st.Field(i).Name()+")")
			}
		}
	}
	named, _ := t.(*types.Named)
	visit(named, "")
}

// frozenDecls holds the //mlplint:frozen types and //mlplint:memo
// fields of the packages a pass touches. It scans a package's syntax —
// the pass's own, or another's through Pass.Module — once, on first
// ask, so foreign packages need no type information.
type frozenDecls struct {
	pass    *analysis.Pass
	scanned map[string]bool
	types   map[string]bool     // "pkgpath.Type"
	memos   map[string][]string // "pkgpath.Type.field" -> the functions that may set it
}

// scan records the annotations of the package at path.
func (f *frozenDecls) scan(path string) {
	if f.scanned[path] {
		return
	}
	f.scanned[path] = true
	for _, file := range packageFiles(f.pass, path) {
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if hasDirective(d.Doc, ruleFrozen) || hasDirective(ts.Doc, ruleFrozen) || hasDirective(ts.Comment, ruleFrozen) {
					f.types[path+"."+ts.Name.Name] = true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					list, ok := directiveArg(field.Doc, ruleMemo)
					if !ok {
						continue
					}
					for _, id := range field.Names {
						f.memos[path+"."+ts.Name.Name+"."+id.Name] = strings.Split(strings.ReplaceAll(list, " ", ""), ",")
					}
				}
			}
		}
	}
}

// typeName returns "pkg.Type" when n is a frozen type.
func (f *frozenDecls) typeName(n *types.Named) (string, bool) {
	if n == nil || n.Obj().Pkg() == nil {
		return "", false
	}
	path := n.Obj().Pkg().Path()
	f.scan(path)
	return types.TypeString(n, (*types.Package).Name), f.types[path+"."+n.Obj().Name()]
}
