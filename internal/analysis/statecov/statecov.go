// Package statecov defines the cbvet analyzer that keeps the simulator's
// state manifest complete.
//
// The machine's state digests — Digest/ComponentDigests — are
// hand-written manifests: each lists a struct's fields one by one. A
// field added to a component but forgotten in its digest is the worst
// kind of bug in this repository: digests go blind to the field, so
// replay verification and bisection verdicts stop covering it. Nothing
// crashes; results are just quietly wrong.
//
// statecov closes the loop: in every simulator-core package, for every
// struct with a digest surface, every field the package mutates must be
// referenced by the struct's digest-side methods (Digest /
// ComponentDigests) — transitively through package-local calls — or
// carry an explicit waiver:
//
//	//cbvet:ephemeral <why this field is not machine state>
//
// Exemptions that need no waiver: fields never mutated outside
// constructors (structural wiring), func-typed fields (closures cannot
// be folded), and mutations inside the digest surface itself.
package statecov

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags mutated struct fields missing from digest manifests in
// simulator-core packages.
var Analyzer = &analysis.Analyzer{
	Name: "statecov",
	Doc: `require mutated sim-core struct fields in digest manifests

For each struct in a simulator-core package that has digest-side
methods (Digest, ComponentDigests), every field mutated outside
constructors must be referenced by them — transitively through
package-local calls — or carry a justified //cbvet:ephemeral waiver on
its declaration. Func-typed fields are exempt (closures cannot be
folded).`,
	Run: run,
}

// digestRoots names the digest-side root methods.
var digestRoots = map[string]bool{"Digest": true, "ComponentDigests": true}

// structInfo is one package-local struct under analysis.
type structInfo struct {
	name *types.TypeName
	// fieldDecl maps each named field to its declaration (for waiver
	// comments and diagnostic anchoring).
	fieldDecl map[*types.Var]*ast.Field
	order     []*types.Var
	// roots are the struct's digest-side root methods.
	roots []*types.Func
}

// mutation records one field write outside constructors.
type mutation struct {
	field *types.Var
	// in names the mutating function, for the diagnostic.
	in string
}

func run(pass *analysis.Pass) error {
	if !analysis.IsSimCore(pass.Pkg.Path()) {
		return nil
	}

	// Index the package's function bodies (non-test files only).
	funcs := map[*types.Func]*ast.FuncDecl{}
	var decls []*ast.FuncDecl
	var structDecls []*ast.TypeSpec
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func); ok {
					funcs[fn] = d
					decls = append(decls, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if _, isStruct := ts.Type.(*ast.StructType); isStruct {
							structDecls = append(structDecls, ts)
						}
					}
				}
			}
		}
	}

	// Collect the structs and map every named field to its owner.
	structs := map[*types.TypeName]*structInfo{}
	fieldOwner := map[*types.Var]*structInfo{}
	for _, ts := range structDecls {
		name, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
		if !ok {
			continue
		}
		si := &structInfo{name: name, fieldDecl: map[*types.Var]*ast.Field{}}
		st := ts.Type.(*ast.StructType)
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
					si.fieldDecl[v] = f
					si.order = append(si.order, v)
					fieldOwner[v] = si
				}
			}
		}
		structs[name] = si
	}

	// Attach digest root methods to their structs.
	for fn := range funcs {
		recv := receiverStruct(fn)
		if recv == nil || !digestRoots[fn.Name()] {
			continue
		}
		if si := structs[recv]; si != nil {
			si.roots = append(si.roots, fn)
		}
	}

	// Per-function field references and package-local callees, for the
	// closure walk.
	refs := map[*types.Func]map[*types.Var]bool{}
	callees := map[*types.Func][]*types.Func{}
	for fn, fd := range funcs {
		r := map[*types.Var]bool{}
		var cs []*types.Func
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel := pass.TypesInfo.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok && fieldOwner[v] != nil {
						r[v] = true
					}
				}
			case *ast.CallExpr:
				if callee := staticCallee(pass, n); callee != nil {
					if _, local := funcs[callee]; local {
						cs = append(cs, callee)
					}
				}
			}
			return true
		})
		refs[fn] = r
		callees[fn] = cs
	}

	// Per struct, the closure of its digest surface: the functions it
	// reaches (whose mutations are fold plumbing, not simulation
	// mutation) and the fields they reference.
	surfaceFns := map[*types.TypeName]map[*types.Func]bool{}
	covered := map[*types.TypeName]map[*types.Var]bool{}
	for name, si := range structs {
		seen := map[*types.Func]bool{}
		cov := map[*types.Var]bool{}
		stack := append([]*types.Func(nil), si.roots...)
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[fn] {
				continue
			}
			seen[fn] = true
			for v := range refs[fn] {
				cov[v] = true
			}
			stack = append(stack, callees[fn]...)
		}
		surfaceFns[name] = seen
		covered[name] = cov
	}

	// Collect mutations: every assignment or ++/-- whose left-hand
	// selector chain lands on a tracked field, outside that field's
	// exempt functions.
	mutated := map[*types.Var]mutation{}
	note := func(fn *types.Func, fd *ast.FuncDecl, expr ast.Expr) {
		for _, v := range chainFields(pass, expr) {
			owner := fieldOwner[v]
			if owner == nil {
				continue
			}
			if surfaceFns[owner.name][fn] || constructs(fn, owner.name) {
				continue
			}
			if _, dup := mutated[v]; !dup {
				mutated[v] = mutation{field: v, in: fd.Name.Name}
			}
		}
	}
	for fn, fd := range funcs {
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					note(fn, fd, lhs)
				}
			case *ast.IncDecStmt:
				note(fn, fd, n.X)
			}
			return true
		})
	}

	// Report uncovered mutated fields per struct.
	names := make([]*types.TypeName, 0, len(structs))
	for name := range structs {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Name() < names[j].Name() })
	for _, name := range names {
		si := structs[name]
		if len(si.roots) == 0 {
			continue
		}
		for _, v := range si.order {
			m, isMut := mutated[v]
			if !isMut {
				continue
			}
			decl := si.fieldDecl[v]
			if analysis.HasDirective(decl.Doc, "cbvet:ephemeral") ||
				analysis.HasDirective(decl.Comment, "cbvet:ephemeral") {
				continue
			}
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				continue
			}
			if !covered[name][v] {
				pass.Reportf(decl.Pos(),
					"field %s.%s is mutated (in %s) but never folded by the digest side (%s): replay verification is blind to it; fold it or waive it with //cbvet:ephemeral <why>",
					name.Name(), v.Name(), m.in, methodNames(si.roots))
			}
		}
	}
	return nil
}

// receiverStruct returns the named type of fn's receiver (through one
// pointer), or nil for package-level functions.
func receiverStruct(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// constructs reports whether fn is a constructor of the named type: a
// package-level function with a result of that type (or a pointer to
// it). Field writes inside constructors are wiring, not mutation.
func constructs(fn *types.Func, name *types.TypeName) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj() == name {
			return true
		}
	}
	return false
}

// staticCallee resolves a call expression to the *types.Func it invokes,
// when that is statically known (direct calls and method calls).
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// chainFields returns every tracked field referenced along a left-hand
// selector chain: c.stats.SyncCycles[k] mutates SyncCycles (of Stats)
// and, transitively, stats (of Core).
func chainFields(pass *analysis.Pass, expr ast.Expr) []*types.Var {
	var out []*types.Var
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if sel := pass.TypesInfo.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					out = append(out, v)
				}
			}
			expr = e.X
		default:
			return out
		}
	}
}

// methodNames renders a root set as "ComponentDigests/Digest" for
// diagnostics.
func methodNames(fns []*types.Func) string {
	names := make([]string, len(fns))
	for i, fn := range fns {
		names[i] = fn.Name()
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}
