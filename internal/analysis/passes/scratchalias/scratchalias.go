// Package scratchalias enforces the aliasing contract of methods
// marked //caft:scratch: their result points into scratch memory
// owned by the receiver and is overwritten in place by the next call,
// so it may only be consumed before control leaves the statement
// sequence that produced it.
//
// The hot paths of this repo (State.ProcsOf, Timeline.Intervals,
// Lister.Free, State.commResources) stay allocation-free precisely by
// returning such scratch. The contract used to live in comments and a
// handful of pinned tests; this analyzer makes it mechanical. A call
// result (or a local variable bound to one) must not be:
//
//   - stored into a struct field, map/slice element, pointer target
//     or package-level variable — anything that outlives the call;
//   - appended into a slice (append both retains the element and may
//     itself be a longer-lived destination);
//   - placed in a composite literal;
//   - captured by a function literal, which may run after the next
//     overwrite;
//   - returned to the caller — unless the returning function is
//     itself annotated //caft:scratch, which is exactly how a scratch
//     contract is propagated outward.
//
// Passing the value down into an ordinary call is allowed: the callee
// receives the same obligation and returns before the caller can
// invoke the scratch method again. When the annotation names a safe
// variant (//caft:scratch safe=ProcsOfCopy), diagnostics steer the
// caller to it.
//
// The tracking is flow-insensitive and first-order on purpose — a
// local rebinding (w := v) is not chased — because the goal is an
// enforceable convention, not an escape analysis: in-tree code that
// needs to retain a result calls the *Copy variant, and code too
// clever for the analyzer gets restructured until it is not.
package scratchalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"caft/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "scratchalias",
	Doc:  "flags retained results of //caft:scratch methods",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		c.checkFile(f)
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
}

func (c *checker) checkFile(f *ast.File) {
	// Pass 1: every call of a //caft:scratch function. Direct misuse
	// is reported; a clean binding to a local variable is recorded
	// for pass 2.
	type tracked struct {
		obj  *types.Var
		fn   *types.Func
		info analysis.ScratchInfo
		def  ast.Node // enclosing function of the definition
	}
	var locals []tracked
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := c.pass.Callee(call)
		if fn == nil {
			return true
		}
		info, ok := c.pass.Directives.Scratch(fn)
		if !ok {
			return true
		}
		if how, pos, bad := c.misuse(call); bad {
			c.report(pos, fn, info, how)
			return true
		}
		if obj := c.boundLocal(call); obj != nil {
			locals = append(locals, tracked{obj: obj, fn: fn, info: info, def: c.enclosingFunc(call)})
		}
		return true
	})

	// Pass 2: uses of the recorded locals. The same misuse contexts
	// apply, plus capture by a more deeply nested function literal.
	for _, tr := range locals {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || c.pass.TypesInfo.Uses[id] != tr.obj {
				return true
			}
			if enc := c.enclosingFunc(id); enc != tr.def {
				if _, isLit := enc.(*ast.FuncLit); isLit {
					c.report(id.Pos(), tr.fn, tr.info, "captured by a function literal that may outlive the next call")
					return true
				}
			}
			if how, pos, bad := c.misuse(id); bad {
				c.report(pos, tr.fn, tr.info, how)
			}
			return true
		})
	}
}

func (c *checker) report(pos token.Pos, fn *types.Func, info analysis.ScratchInfo, how string) {
	msg := "result of //caft:scratch " + analysis.FuncLabel(fn) + " " + how + "; the next call overwrites it in place"
	if info.Safe != "" {
		msg += " — retain a copy with " + info.Safe
	}
	c.pass.Reportf(pos, "%s", msg)
}

// misuse classifies the immediate syntactic context of expr (a scratch
// call or a tracked local's use). It walks out through parentheses and
// composite-literal keys only; everything else is judged one level up.
func (c *checker) misuse(expr ast.Expr) (how string, pos token.Pos, bad bool) {
	n := ast.Node(expr)
	for {
		p := c.pass.Parent(n)
		switch pp := p.(type) {
		case *ast.ParenExpr:
			n = pp
			continue
		case *ast.KeyValueExpr:
			if pp.Value == n {
				n = pp
				continue
			}
			return "", 0, false // used as a map key: consumed immediately
		case *ast.CompositeLit:
			return "placed in a composite literal", expr.Pos(), true
		case *ast.CallExpr:
			if isBuiltinAppend(c.pass, pp) && appendRetains(pp, n) {
				return "appended into a slice that outlives the statement", expr.Pos(), true
			}
			return "", 0, false // ordinary argument: callee consumes before return
		case *ast.ReturnStmt:
			if enc, ok := c.enclosingFunc(expr).(*ast.FuncDecl); ok {
				if fn, ok := c.pass.TypesInfo.Defs[enc.Name].(*types.Func); ok {
					if _, scratch := c.pass.Directives.Scratch(fn); scratch {
						return "", 0, false // scratch propagating through a scratch method
					}
				}
			}
			return "returned to the caller (annotate the returning function //caft:scratch, or copy)", expr.Pos(), true
		case *ast.AssignStmt:
			return c.assignMisuse(pp, n.(ast.Expr))
		case *ast.ValueSpec:
			return c.valueSpecMisuse(pp, n.(ast.Expr))
		default:
			return "", 0, false
		}
	}
}

// assignMisuse judges `lhs = rhs` where rhs is (or contains, as the
// matched position) the scratch value.
func (c *checker) assignMisuse(as *ast.AssignStmt, rhs ast.Expr) (string, token.Pos, bool) {
	for i, r := range as.Rhs {
		if r != rhs {
			continue
		}
		if len(as.Lhs) != len(as.Rhs) {
			return "", 0, false // v, err := f() shapes don't apply to single-result scratch
		}
		return c.storeMisuse(as.Lhs[i])
	}
	return "", 0, false
}

func (c *checker) valueSpecMisuse(vs *ast.ValueSpec, rhs ast.Expr) (string, token.Pos, bool) {
	for i, r := range vs.Values {
		if r != rhs || i >= len(vs.Names) {
			continue
		}
		if obj, ok := c.pass.TypesInfo.Defs[vs.Names[i]].(*types.Var); ok && analysis.IsPkgLevel(obj) {
			return "stored into package variable " + vs.Names[i].Name, rhs.Pos(), true
		}
	}
	return "", 0, false
}

// storeMisuse judges one assignment destination.
func (c *checker) storeMisuse(lhs ast.Expr) (string, token.Pos, bool) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj, ok := c.pass.TypesInfo.Uses[l].(*types.Var); ok && analysis.IsPkgLevel(obj) {
			return "stored into package variable " + l.Name, lhs.Pos(), true
		}
		if obj, ok := c.pass.TypesInfo.Defs[l].(*types.Var); ok && analysis.IsPkgLevel(obj) {
			return "stored into package variable " + l.Name, lhs.Pos(), true
		}
		return "", 0, false // local binding: pass 2 watches its uses
	case *ast.SelectorExpr:
		return "stored into field or variable " + l.Sel.Name, lhs.Pos(), true
	case *ast.IndexExpr:
		return "stored into a map or slice element", lhs.Pos(), true
	case *ast.StarExpr:
		return "stored through a pointer", lhs.Pos(), true
	}
	return "", 0, false
}

// boundLocal returns the local variable an expression statement binds
// the call to, if the binding is a plain `v := call()` / `v = call()`.
func (c *checker) boundLocal(call *ast.CallExpr) *types.Var {
	n := ast.Node(call)
	for {
		if p, ok := c.pass.Parent(n).(*ast.ParenExpr); ok {
			n = p
			continue
		}
		break
	}
	switch p := c.pass.Parent(n).(type) {
	case *ast.AssignStmt:
		for i, r := range p.Rhs {
			if r == n && len(p.Lhs) == len(p.Rhs) {
				if id, ok := p.Lhs[i].(*ast.Ident); ok {
					if obj, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok && !analysis.IsPkgLevel(obj) {
						return obj
					}
					if obj, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && !analysis.IsPkgLevel(obj) {
						return obj
					}
				}
			}
		}
	case *ast.ValueSpec:
		for i, r := range p.Values {
			if r == n && i < len(p.Names) {
				if obj, ok := c.pass.TypesInfo.Defs[p.Names[i]].(*types.Var); ok && !analysis.IsPkgLevel(obj) {
					return obj
				}
			}
		}
	}
	return nil
}

// enclosingFunc returns the innermost FuncDecl or FuncLit containing n.
func (c *checker) enclosingFunc(n ast.Node) ast.Node {
	for p := c.pass.Parent(n); p != nil; p = c.pass.Parent(p) {
		switch p.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return p
		}
	}
	return nil
}

// appendRetains reports whether append(args...) retains the scratch
// value n. Two append shapes do NOT retain it: n as the base slice
// (args[0] — the owner extending its own scratch in place) and n
// spread with an ellipsis (append(dst, scratch...) copies the
// elements out, which is exactly the HotCopy idiom). Everything else
// stores the scratch slice itself into a longer-lived backing array.
func appendRetains(call *ast.CallExpr, n ast.Node) bool {
	for i, arg := range call.Args {
		if ast.Node(arg) != n {
			continue
		}
		if i == 0 {
			return false
		}
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			return false
		}
		return true
	}
	return false
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	return obj != nil && obj.Parent() == types.Universe
}
