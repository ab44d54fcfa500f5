// Package confine enforces the goroutine-confinement contract of
// types marked //caft:confined: their values belong to exactly one
// goroutine for their whole lifetime, with the service worker pool as
// the only sanctioned concurrency boundary.
//
// The library types of this repo (sched.State, sim.Replayer,
// timeline.Timeline, online.Engine) are single-goroutine by design —
// they share scratch buffers, pristine copies and lazily-built
// overlays that data-race the moment two goroutines touch one value.
// That contract used to live in package comments; this analyzer makes
// it mechanical. A value of a confined type (or a pointer, slice,
// array, map or channel of one) must not be:
//
//   - captured by the function literal of a go statement, or passed
//     as an argument to the function a go statement launches;
//   - sent on or received from a channel;
//   - stored in a package-level variable;
//   - held in a field of a type that is not itself //caft:confined
//     (confinement propagates: a wrapper that embeds a *State is
//     confined too, and says so).
//
// Passing a confined value down an ordinary call, returning it, and
// local rebinding are all fine — those stay on the caller's
// goroutine. A deliberate handoff point (the worker pool moving a
// per-goroutine bundle into a worker) carries //caft:share-ok
// <reason> on its line.
//
// Confinement is a type-level fact: the loader indexes the confined
// types of every dependency, so a package that imports sched and
// shares a State is caught even when caftvet runs on that package
// alone.
package confine

import (
	"go/ast"
	"go/token"
	"go/types"

	"caft/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "confine",
	Doc:  "flags //caft:confined values crossing a goroutine boundary",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		c.checkFile(f)
		for _, s := range pass.Directives.StraysIn(pass.Fset, f, "confined") {
			pass.Reportf(s.Pos, "stale //caft:confined: not the doc comment of a type declaration (was the type deleted or renamed?)")
		}
		for _, ld := range pass.Directives.UnusedIn(pass.Fset, f, "share-ok") {
			pass.Reportf(ld.Pos, "stale //caft:share-ok: no suppressed confinement violation on this or the next line")
		}
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
}

func (c *checker) checkFile(f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if ok && gd.Tok == token.VAR {
			c.checkPkgVars(gd)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.checkGo(n)
		case *ast.SendStmt:
			if obj := c.confinedOf(c.pass.TypesInfo.TypeOf(n.Value)); obj != nil {
				c.report(n.Value.Pos(), "confined %s sent on a channel", label(obj))
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := c.confinedOf(recvType(c.pass, n)); obj != nil {
					c.report(n.Pos(), "confined %s received from a channel", label(obj))
				}
			}
		case *ast.StructType:
			c.checkStruct(n)
		case *ast.AssignStmt:
			c.checkAssign(n)
		}
		return true
	})
}

// report emits one confinement diagnostic unless a //caft:share-ok
// covers the line; a suppression without a reason is itself reported.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	if ld, ok := c.pass.Directives.SuppressedAt(c.pass.Fset, pos, "share-ok"); ok {
		if ld.Reason == "" {
			c.pass.Reportf(pos, "//caft:share-ok needs a reason: say why this handoff is a designed concurrency boundary")
		}
		return
	}
	c.pass.Reportf(pos, format+"; confined values live on one goroutine — a designed handoff carries //caft:share-ok <reason>", args...)
}

// checkGo flags confined values crossing into the goroutine a go
// statement launches: arguments to the launched call, the receiver of
// a launched method, and free variables a launched function literal
// captures.
func (c *checker) checkGo(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if obj := c.confinedOf(c.pass.TypesInfo.TypeOf(arg)); obj != nil {
			c.report(arg.Pos(), "confined %s passed to a go statement", label(obj))
		}
	}
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.SelectorExpr:
		if obj := c.confinedOf(c.pass.TypesInfo.TypeOf(fun.X)); obj != nil {
			c.report(fun.X.Pos(), "method of confined %s launched as a goroutine", label(obj))
		}
	case *ast.FuncLit:
		c.checkGoLit(fun)
	}
}

// checkGoLit flags confined free variables of a go'd function literal.
// Variables bound inside the literal (parameters, locals) stay on the
// new goroutine and are fine; package-level variables are the
// package-variable rule's problem.
func (c *checker) checkGoLit(lit *ast.FuncLit) {
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || seen[v] || v.Pos() == token.NoPos {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		if analysis.IsPkgLevel(v) || v.IsField() {
			return true
		}
		if obj := c.confinedOf(v.Type()); obj != nil {
			seen[v] = true
			c.report(id.Pos(), "confined %s captured by a go'd function literal", label(obj))
		}
		return true
	})
}

// checkPkgVars flags package-level variables of confined type.
func (c *checker) checkPkgVars(gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			v, ok := c.pass.TypesInfo.Defs[name].(*types.Var)
			if !ok || !analysis.IsPkgLevel(v) {
				continue
			}
			if obj := c.confinedOf(v.Type()); obj != nil {
				c.report(name.Pos(), "confined %s held in package variable %s", label(obj), name.Name)
			}
		}
	}
}

// checkAssign flags stores of confined values into package-level
// variables whose declared type did not already trip the package-
// variable rule (an `any`-typed global, a variable in another
// package).
func (c *checker) checkAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		var v *types.Var
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			v, _ = c.pass.TypesInfo.Uses[l].(*types.Var)
		case *ast.SelectorExpr:
			if sv, ok := c.pass.TypesInfo.Uses[l.Sel].(*types.Var); ok && !sv.IsField() {
				v = sv
			}
		}
		if v == nil || !analysis.IsPkgLevel(v) {
			continue
		}
		if c.confinedOf(v.Type()) != nil {
			continue // the declaration already carries the diagnostic
		}
		if obj := c.confinedOf(c.pass.TypesInfo.TypeOf(as.Rhs[i])); obj != nil {
			c.report(as.Rhs[i].Pos(), "confined %s stored in package variable %s", label(obj), v.Name())
		}
	}
}

// checkStruct flags fields of confined type inside a struct that is
// not itself confined. Walking the parent chain finds the enclosing
// type declaration; an anonymous struct has none and can never be
// confined.
func (c *checker) checkStruct(st *ast.StructType) {
	for n := ast.Node(st); n != nil; n = c.pass.Parent(n) {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if tn, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok && c.pass.Directives.Confined(tn) {
				return // a confined type may hold confined fields
			}
		}
	}
	for _, field := range st.Fields.List {
		obj := c.confinedOf(c.pass.TypesInfo.TypeOf(field.Type))
		if obj == nil {
			continue
		}
		if name := c.enclosingTypeName(st); name != "" {
			c.report(field.Pos(), "confined %s held in a field of non-confined type %s (mark %s //caft:confined to propagate the contract)", label(obj), name, name)
		} else {
			c.report(field.Pos(), "confined %s held in a field of an anonymous struct, which cannot be marked //caft:confined", label(obj))
		}
	}
}

func (c *checker) enclosingTypeName(st *ast.StructType) string {
	for n := ast.Node(st); n != nil; n = c.pass.Parent(n) {
		if ts, ok := n.(*ast.TypeSpec); ok {
			return ts.Name.Name
		}
	}
	return ""
}

// confinedOf unwraps pointers and container element types and reports
// the //caft:confined named type underneath, if any. A named type
// that is not itself confined stops the walk: the tracking is
// first-order on purpose (a named wrapper either carries its own
// directive or owns its own contract).
func (c *checker) confinedOf(t types.Type) *types.TypeName {
	for range 16 {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Named:
			obj := u.Obj()
			if c.pass.Directives.Confined(obj) {
				return obj
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// recvType returns the received value's type of a <-ch expression,
// unwrapping the tuple a comma-ok receive records.
func recvType(pass *analysis.Pass, n *ast.UnaryExpr) types.Type {
	t := pass.TypesInfo.TypeOf(n)
	if tup, ok := t.(*types.Tuple); ok && tup.Len() > 0 {
		return tup.At(0).Type()
	}
	return t
}

// label renders sched.State-style names for diagnostics.
func label(obj *types.TypeName) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
