// Package obsreadonly defines the cbvet analyzer that pins PR 3's
// "observational-only hooks" contract: trace/metrics observers may read
// simulator state but never write it.
//
// The observability layer's correctness claim is that attaching any
// number of sinks leaves Stats byte-identical (the
// TestStatsByteIdenticalWithTracing regression). That holds only if the
// observer callbacks installed via SetObserver — the one setter each
// emitting component has for the typed event stream — and everything
// they call are pure readers of the machine. A single counter bump or map
// insert inside a hook silently makes traced runs diverge from untraced
// ones.
package obsreadonly

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer forbids simulator-state writes in observer callbacks.
var Analyzer = &analysis.Analyzer{
	Name: "obsreadonly",
	Doc: `forbid simulator-state writes in observer hooks

Functions installed as observers (arguments to Set*Observer methods) and
every same-package function they call must not:

  - assign to, increment, or delete from fields of types declared in
    simulator-core packages
  - assign to package-level variables of simulator-core packages
  - call pointer-receiver methods on simulator-core types (potential
    mutators; split out a value-receiver getter instead)

Observers exist to Emit trace events and feed obs histograms; state
changes belong to the simulation proper so that traced and untraced runs
stay byte-identical.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Map function/method objects to their declarations for the
	// same-package reachability walk.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}

	c := &checker{pass: pass, decls: decls, visited: map[types.Object]bool{}}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isObserverRegistration(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				c.checkObserver(arg)
			}
			return true
		})
	}
	return nil
}

// isObserverRegistration reports whether call installs an observer: the
// callee is named Set*Observer (the components' SetObserver).
func isObserverRegistration(pass *analysis.Pass, call *ast.CallExpr) bool {
	obj := calleeObj(pass, call.Fun)
	if obj == nil {
		return false
	}
	name := obj.Name()
	const pre, suf = "Set", "Observer"
	return len(name) >= len(pre)+len(suf) &&
		name[:len(pre)] == pre && name[len(name)-len(suf):] == suf
}

type checker struct {
	pass    *analysis.Pass
	decls   map[types.Object]*ast.FuncDecl
	visited map[types.Object]bool
}

// checkObserver analyzes an observer argument: a func literal in place,
// or a reference to a same-package function/method.
func (c *checker) checkObserver(arg ast.Expr) {
	switch arg := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		c.checkBody(arg.Body, "observer hook")
	case *ast.Ident, *ast.SelectorExpr:
		if obj := calleeObj(c.pass, arg); obj != nil {
			c.checkReachable(obj)
		}
	}
}

// checkReachable analyzes a named function installed as (or called
// from) an observer, once.
func (c *checker) checkReachable(obj types.Object) {
	if c.visited[obj] {
		return
	}
	c.visited[obj] = true
	if fd, ok := c.decls[obj]; ok {
		c.checkBody(fd.Body, "function "+obj.Name()+" (reachable from an observer hook)")
	}
}

// checkBody flags state writes in an observer-reachable body and
// recurses into same-package callees.
func (c *checker) checkBody(body *ast.BlockStmt, ctx string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkWrite(lhs, ctx)
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X, ctx)
		case *ast.CallExpr:
			c.checkCall(n, ctx)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr, ctx string) {
	fun := ast.Unparen(call.Fun)

	// delete(m.field, k) mutates the field's map.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "delete" && len(call.Args) > 0 {
				c.checkWrite(call.Args[0], ctx)
			}
			return
		}
	}

	obj := calleeObj(c.pass, fun)
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)

	// Pointer-receiver methods on simulator-core types may mutate.
	if recv := sig.Recv(); recv != nil {
		if pt, ok := recv.Type().(*types.Pointer); ok && isSimCoreNamed(pt.Elem()) {
			c.pass.Reportf(call.Pos(), "obsreadonly: %s calls pointer-receiver method %s on simulator type %s: observers must not mutate simulator state", ctx, fn.Name(), typeString(c.pass, pt.Elem()))
			return
		}
	}

	// Recurse into same-package functions the observer calls.
	if fn.Pkg() == c.pass.Pkg {
		c.checkReachable(fn)
	}
}

// checkWrite flags lhs if it writes simulator state: a field of a
// simulator-core type, an element reached through one, or a
// simulator-core package-level variable.
func (c *checker) checkWrite(lhs ast.Expr, ctx string) {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel, ok := c.pass.TypesInfo.Selections[x]
			if ok && sel.Kind() == types.FieldVal {
				if isSimCoreNamed(sel.Recv()) {
					c.pass.Reportf(lhs.Pos(), "obsreadonly: %s writes field %s of simulator type %s: observers are read-only", ctx, x.Sel.Name, typeString(c.pass, sel.Recv()))
					return
				}
			}
			e = x.X
		case *ast.Ident:
			if v, ok := c.pass.TypesInfo.Uses[x].(*types.Var); ok && !v.IsField() {
				if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && analysis.IsSimCore(v.Pkg().Path()) {
					c.pass.Reportf(lhs.Pos(), "obsreadonly: %s writes package-level variable %s of simulator package %s: observers are read-only", ctx, x.Name, v.Pkg().Path())
				}
			}
			return
		default:
			return
		}
	}
}

// isSimCoreNamed reports whether t (or *t) is a named type declared in
// a simulator-core package.
func isSimCoreNamed(t types.Type) bool {
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && analysis.IsSimCore(pkg.Path())
}

func calleeObj(pass *analysis.Pass, fun ast.Expr) types.Object {
	switch fun := fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func typeString(pass *analysis.Pass, t types.Type) string {
	return types.TypeString(t, types.RelativeTo(pass.Pkg))
}
