// Package hotpath defines the cbvet analyzer that makes the simulator's
// zero-allocation guarantee a static property.
//
// PR 1 rebuilt the kernel event loop and NoC routing to run at 0
// allocs/op, but that guarantee lived only in AllocsPerRun benchmarks: a
// stray closure or fmt call would pass every functional test and only
// show up as a benchmark regression. Functions annotated
//
//	//cbsim:hotpath
//
// are instead checked at vet time: their bodies must contain no
// construct that forces a heap allocation on the happy path. Cold panic
// paths are exempt — anything inside a panic(...) argument may allocate,
// since the simulation is already dead at that point.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer enforces allocation-freedom of //cbsim:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: `forbid allocating constructs in //cbsim:hotpath functions

Inside an annotated function the following are diagnostics (except under
a panic(...) argument, which is a cold path):

  - func literals that capture enclosing variables (closure allocation)
  - method values used as func values (bound-method allocation)
  - calls into package fmt (boxing + formatting buffers)
  - non-constant string concatenation
  - map/slice composite literals, make, new, and &T{...} literals
  - conversions of non-pointer-shaped concrete values to interfaces
    (boxing), including implicit ones at call arguments, assignments,
    returns, and struct-literal fields

append is deliberately allowed: hot-path containers are pre-grown, so
append is amortized allocation-free and the AllocsPerRun benchmarks keep
it honest. A deliberate cold- or growth-path allocation can be waived
with a //cbvet:alloc-ok comment on (or above) the offending line; the
waiver is a documented exception, not an off switch.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		var ld *analysis.LineDirectives
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !analysis.HasDirective(fd.Doc, "cbsim:hotpath") {
				continue
			}
			if ld == nil {
				ld = analysis.NewLineDirectives(pass.Fset, file)
			}
			check(pass, fd, ld)
		}
	}
	return nil
}

// checker walks one annotated function body.
type checker struct {
	pass *analysis.Pass
	fn   *ast.FuncDecl
	// panics are the [Pos,End) intervals of panic(...) arguments; nodes
	// inside them are exempt.
	panics [][2]token.Pos
	// calleePos marks SelectorExpr/Ident nodes in call position, so
	// method *calls* are not mistaken for method *values*.
	calleePos map[ast.Expr]bool
	// sigs is the innermost-function signature stack, for matching
	// return statements to result types.
	sigs []*types.Signature
	// ld resolves //cbvet:alloc-ok waivers.
	ld *analysis.LineDirectives
}

func check(pass *analysis.Pass, fd *ast.FuncDecl, ld *analysis.LineDirectives) {
	c := &checker{pass: pass, fn: fd, calleePos: map[ast.Expr]bool{}, ld: ld}

	// Pre-pass: collect panic-argument intervals and call positions.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c.calleePos[ast.Unparen(call.Fun)] = true
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" && len(call.Args) == 1 {
				c.panics = append(c.panics, [2]token.Pos{call.Args[0].Pos(), call.Args[0].End()})
			}
		}
		return true
	})

	if sig, ok := pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature); ok {
		c.sigs = append(c.sigs, sig)
	}
	c.walk(fd.Body)
}

func (c *checker) exempt(pos token.Pos) bool {
	for _, iv := range c.panics {
		if iv[0] <= pos && pos < iv[1] {
			return true
		}
	}
	return false
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.exempt(pos) {
		return
	}
	if c.ld != nil && c.ld.Covers(pos, "cbvet:alloc-ok") {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) walk(n ast.Node) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.FuncLit:
		c.checkFuncLit(n)
		if sig, ok := c.pass.TypesInfo.Types[n].Type.(*types.Signature); ok {
			c.sigs = append(c.sigs, sig)
			defer func() { c.sigs = c.sigs[:len(c.sigs)-1] }()
		}
	case *ast.CallExpr:
		c.checkCall(n)
	case *ast.SelectorExpr:
		c.checkMethodValue(n)
	case *ast.BinaryExpr:
		c.checkConcat(n)
	case *ast.CompositeLit:
		c.checkCompositeLit(n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				c.report(n.Pos(), "hotpath: &%s literal allocates; reuse a pre-allocated object", typeName(c.pass, n.X))
			}
		}
	case *ast.AssignStmt:
		c.checkAssign(n)
	case *ast.ValueSpec:
		c.checkValueSpec(n)
	case *ast.ReturnStmt:
		c.checkReturn(n)
	}
	// Recurse in source order.
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n {
			return true
		}
		if child != nil {
			c.walk(child)
		}
		return false
	})
}

// checkFuncLit flags closures that capture enclosing-function variables.
func (c *checker) checkFuncLit(lit *ast.FuncLit) {
	fnStart, fnEnd := c.fn.Pos(), c.fn.End()
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		declaredInEnclosing := pos >= fnStart && pos < fnEnd
		declaredInLit := pos >= lit.Pos() && pos < lit.End()
		if declaredInEnclosing && !declaredInLit {
			c.report(lit.Pos(), "hotpath: func literal captures %q: the closure allocates per call; use sim.Actor or pre-bound state", id.Name)
			return false
		}
		return true
	})
}

// checkMethodValue flags `x.M` used as a value (allocates a bound-method
// closure); method calls `x.M(...)` are fine.
func (c *checker) checkMethodValue(sel *ast.SelectorExpr) {
	if c.calleePos[sel] {
		return
	}
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	c.report(sel.Pos(), "hotpath: method value %s.%s allocates a bound closure; call it directly or use sim.Actor", typeName(c.pass, sel.X), sel.Sel.Name)
}

func (c *checker) checkCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Conversion, e.g. I(x)?
	if tv, ok := c.pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			c.checkBox(call.Args[0], tv.Type, "conversion")
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.report(call.Pos(), "hotpath: make allocates; pre-size containers outside the hot path")
			case "new":
				c.report(call.Pos(), "hotpath: new allocates; reuse a pre-allocated object")
			}
			return
		}
	}

	// fmt calls.
	if obj := calleeObj(c.pass, fun); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		c.report(call.Pos(), "hotpath: fmt.%s allocates (boxing and format buffers); move formatting off the hot path", obj.Name())
		return
	}

	// Implicit boxing at argument positions.
	sig, ok := c.pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		c.checkBox(arg, pt, "argument")
	}
}

func (c *checker) checkConcat(be *ast.BinaryExpr) {
	if be.Op != token.ADD {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[be]
	if !ok || tv.Value != nil { // constant-folded concat is free
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		c.report(be.Pos(), "hotpath: string concatenation allocates; precompute or carry numbers instead, as trace.Event does")
	}
}

func (c *checker) checkCompositeLit(lit *ast.CompositeLit) {
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Map:
		c.report(lit.Pos(), "hotpath: map literal allocates; build the map outside the hot path")
	case *types.Slice:
		c.report(lit.Pos(), "hotpath: slice literal allocates; use a pre-grown buffer or an array")
	case *types.Struct:
		// Struct values are stack-allocated, but interface-typed fields
		// still box their initializers.
		for i, elt := range lit.Elts {
			var ft types.Type
			var val ast.Expr
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					for j := 0; j < u.NumFields(); j++ {
						if u.Field(j).Name() == key.Name {
							ft = u.Field(j).Type()
							break
						}
					}
				}
				val = kv.Value
			} else if i < u.NumFields() {
				ft = u.Field(i).Type()
				val = elt
			}
			c.checkBox(val, ft, "field")
		}
	}
}

func (c *checker) checkAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := c.pass.TypesInfo.TypeOf(as.Lhs[i])
		c.checkBox(as.Rhs[i], lt, "assignment")
	}
}

func (c *checker) checkValueSpec(vs *ast.ValueSpec) {
	if vs.Type == nil || len(vs.Values) == 0 {
		return
	}
	t := c.pass.TypesInfo.TypeOf(vs.Type)
	for _, v := range vs.Values {
		c.checkBox(v, t, "assignment")
	}
}

func (c *checker) checkReturn(rs *ast.ReturnStmt) {
	if len(c.sigs) == 0 {
		return
	}
	res := c.sigs[len(c.sigs)-1].Results()
	if res.Len() != len(rs.Results) {
		return
	}
	for i, r := range rs.Results {
		c.checkBox(r, res.At(i).Type(), "return")
	}
}

// checkBox reports expr if assigning it to type `to` boxes a
// non-pointer-shaped concrete value into an interface (a heap
// allocation). Pointer-shaped values (pointers, channels, maps, funcs,
// unsafe.Pointer) box for free; constants may be folded into read-only
// statics and are left to the benchmarks.
func (c *checker) checkBox(expr ast.Expr, to types.Type, what string) {
	if expr == nil || to == nil {
		return
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return
	}
	from := tv.Type
	if _, ok := from.Underlying().(*types.Interface); ok {
		return
	}
	switch u := from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return
		}
	}
	c.report(expr.Pos(), "hotpath: %s boxes %s into %s (allocates); pass a pointer or restructure", what, from, to)
}

// calleeObj resolves the called function's object, if it is a named
// function or method.
func calleeObj(pass *analysis.Pass, fun ast.Expr) types.Object {
	switch fun := fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func typeName(pass *analysis.Pass, e ast.Expr) string {
	if t := pass.TypesInfo.TypeOf(e); t != nil {
		return types.TypeString(t, types.RelativeTo(pass.Pkg))
	}
	return "?"
}
