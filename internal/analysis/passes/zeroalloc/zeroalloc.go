// Package zeroalloc enforces the allocation-freedom contract of
// functions marked //caft:zeroalloc: every path through the body —
// not just the one a benchmark happens to drive — must be free of
// heap allocation sites.
//
// The pinned hot paths of this repo (Replayer.Replay/ReplayTimed,
// State.ProbeReplica under Insertion, the caftd cache-hit path, the
// online engine's steady-state replay) are guarded dynamically by
// testing.AllocsPerRun pins; those pins exercise one input. This
// analyzer covers the rest statically. Inside an annotated function
// it flags:
//
//   - make and new;
//   - allocating composite literals: slice and map literals, and
//     &T{...} (a plain value struct literal stays on the stack);
//   - append through a slice that is not rooted in receiver scratch —
//     a field, a parameter, or a local bound to one (st.pending[:0]
//     style); anything else has unknown capacity and may grow;
//   - function literals (closure allocation), except literals passed
//     directly to a known non-escaping stdlib function (sort.Search
//     and friends);
//   - conversions that box into an interface or copy between string
//     and []byte, and string concatenation;
//   - go statements;
//   - calls that cannot be proven allocation-free: dynamic calls
//     through interfaces or function values, and static calls to
//     functions neither marked //caft:zeroalloc nor on the small
//     allowlist of known allocation-free stdlib functions (package
//     math, sync, sync/atomic; sort.Search*; time.Now/Since;
//     errors.Is; len/cap/copy and the other non-allocating builtins).
//
// Calls to other //caft:zeroalloc functions are the propagation
// mechanism: sim.Replayer.run may call sched.State.PlaceReplica
// because PlaceReplica carries its own annotation and is checked in
// its own package — and the loader indexes the annotations of every
// dependency, so the chain holds across packages even when caftvet
// runs on one package at a time.
//
// A deliberate allocation — an error constructed on a rejection path,
// a lazily built overlay that is reused ever after — carries
// //caft:alloc-ok <reason> on its line; one directive covers every
// finding on that line.
package zeroalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"caft/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "zeroalloc",
	Doc:  "flags allocation sites in //caft:zeroalloc functions",
	Run:  run,
}

// allowPkgs are packages whose exported functions and methods are
// known allocation-free wholesale.
var allowPkgs = map[string]bool{
	"math":        true,
	"sync":        true,
	"sync/atomic": true,
}

// allowFuncs are individually known allocation-free stdlib functions.
var allowFuncs = map[string]map[string]bool{
	"sort": {
		"Search":         true,
		"SearchInts":     true,
		"SearchFloat64s": true,
		"SearchStrings":  true,
	},
	"time":   {"Now": true, "Since": true, "Seconds": true},
	"errors": {"Is": true},
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && pass.Directives.ZeroallocDecl(pass.Pkg.Path(), fd) {
				c.checkFunc(fd)
			}
		}
		for _, s := range pass.Directives.StraysIn(pass.Fset, f, "zeroalloc") {
			pass.Reportf(s.Pos, "stale //caft:zeroalloc: not the doc comment of a function declaration (was the function deleted or renamed?)")
		}
		for _, ld := range pass.Directives.UnusedIn(pass.Fset, f, "alloc-ok") {
			pass.Reportf(ld.Pos, "stale //caft:alloc-ok: no suppressed allocation site on this or the next line")
		}
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass

	// per-function state, reset by checkFunc
	fnLabel  string
	rooted   map[*types.Var]bool       // receiver, parameters, named results
	bindings map[*types.Var][]ast.Expr // local -> every expression assigned to it
	walking  map[*types.Var]bool       // cycle guard for rootedSlice
	exempt   map[*ast.FuncLit]bool     // literals passed to non-escaping stdlib funcs
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	c.fnLabel = analysis.FuncLabel(c.pass.TypesInfo.Defs[fd.Name].(*types.Func))
	c.rooted = make(map[*types.Var]bool)
	c.bindings = make(map[*types.Var][]ast.Expr)
	c.walking = make(map[*types.Var]bool)
	c.exempt = make(map[*ast.FuncLit]bool)
	if fd.Recv != nil {
		c.addRooted(fd.Recv)
	}
	c.addRooted(fd.Type.Params)
	c.addRooted(fd.Type.Results)

	// Pre-pass: record local bindings (for the append-root rule) and
	// function literals handed directly to non-escaping callees.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if v := c.localVar(id); v != nil {
							c.bindings[v] = append(c.bindings[v], n.Rhs[i])
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
						c.bindings[v] = append(c.bindings[v], n.Values[i])
					}
				}
			}
		case *ast.CallExpr:
			if fn := c.pass.Callee(n); fn != nil && fn.Pkg() != nil {
				if m := allowFuncs[fn.Pkg().Path()]; m != nil && m[fn.Name()] {
					for _, arg := range n.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							c.exempt[lit] = true
						}
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.CompositeLit:
			c.checkLit(n)
		case *ast.FuncLit:
			if !c.exempt[n] {
				c.report(n.Pos(), "function literal allocates a closure")
			}
		case *ast.GoStmt:
			c.report(n.Pos(), "go statement allocates")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(c.pass.TypesInfo.TypeOf(n)) {
				c.report(n.Pos(), "string concatenation allocates")
			}
		}
		return true
	})
}

func (c *checker) addRooted(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		for _, name := range field.Names {
			if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
				c.rooted[v] = true
			}
		}
	}
}

// report emits one allocation diagnostic unless a //caft:alloc-ok
// covers the line; a suppression without a reason is itself reported.
func (c *checker) report(pos token.Pos, what string) {
	if ld, ok := c.pass.Directives.SuppressedAt(c.pass.Fset, pos, "alloc-ok"); ok {
		if ld.Reason == "" {
			c.pass.Reportf(pos, "//caft:alloc-ok needs a reason: say why this allocation is deliberate")
		}
		return
	}
	c.pass.Reportf(pos, "%s in //caft:zeroalloc %s; use pre-sized receiver scratch or annotate the line //caft:alloc-ok <reason>", what, c.fnLabel)
}

func (c *checker) checkCall(call *ast.CallExpr) {
	// Conversions first: T(x) parses as a call.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		c.checkConv(call, tv.Type)
		return
	}
	// Builtins: append is judged by its base; make and new allocate;
	// the rest (len, cap, copy, delete, min, max, panic, ...) do not.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil && obj.Parent() == types.Universe {
			switch id.Name {
			case "make":
				c.report(call.Pos(), "make allocates")
			case "new":
				c.report(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !c.rootedSlice(call.Args[0]) {
					c.report(call.Pos(), "append through a slice not rooted in receiver scratch (unknown capacity)")
				}
			}
			return
		}
	}
	fn := c.pass.Callee(call)
	if fn == nil {
		c.report(call.Pos(), "call through a function value cannot be proven zero-alloc")
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			c.report(call.Pos(), "dynamic call to "+calleeLabel(fn)+" through an interface cannot be proven zero-alloc")
			return
		}
	}
	if c.pass.Directives.Zeroalloc(fn) {
		return
	}
	if pkg := fn.Pkg(); pkg != nil {
		if allowPkgs[pkg.Path()] {
			return
		}
		if m := allowFuncs[pkg.Path()]; m != nil && m[fn.Name()] {
			return
		}
	}
	c.report(call.Pos(), "call to "+calleeLabel(fn)+", which is not marked //caft:zeroalloc (nor known allocation-free)")
}

// checkConv flags the conversions that copy or box.
func (c *checker) checkConv(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := c.pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if types.IsInterface(to) && !types.IsInterface(from) {
		c.report(call.Pos(), "conversion to an interface type boxes its operand")
		return
	}
	toStr, fromStr := isString(to), isString(from)
	if (toStr && !fromStr) || (fromStr && isByteish(to)) {
		c.report(call.Pos(), "string conversion copies its operand")
	}
}

// rootedSlice reports whether the slice expression is rooted in
// receiver scratch: a field selector, a parameter, or (first-order) a
// local every binding of which is itself rooted. Appends through such
// slices stay within pre-sized capacity by the scratch contract;
// everything else may grow.
func (c *checker) rootedSlice(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return true // field (or package var — confine's problem, not ours)
	case *ast.IndexExpr:
		return c.rootedSlice(e.X)
	case *ast.SliceExpr:
		return c.rootedSlice(e.X)
	case *ast.StarExpr:
		return c.rootedSlice(e.X)
	case *ast.CallExpr:
		// append(rooted, ...) stays rooted; any other call result has
		// unknown capacity.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil && obj.Parent() == types.Universe && len(e.Args) > 0 {
				return c.rootedSlice(e.Args[0])
			}
		}
		return false
	case *ast.Ident:
		v, ok := c.pass.TypesInfo.Uses[e].(*types.Var)
		if !ok {
			return false
		}
		if c.rooted[v] {
			return true
		}
		if c.walking[v] {
			return false // self-reference (x = append(x, ...)) proves nothing
		}
		c.walking[v] = true
		defer delete(c.walking, v)
		for _, b := range c.bindings[v] {
			if c.rootedSlice(b) {
				return true
			}
		}
		return false
	}
	return false
}

func (c *checker) checkLit(lit *ast.CompositeLit) {
	t := c.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.report(lit.Pos(), "slice literal allocates")
		return
	case *types.Map:
		c.report(lit.Pos(), "map literal allocates")
		return
	}
	if u, ok := c.pass.Parent(lit).(*ast.UnaryExpr); ok && u.Op == token.AND {
		c.report(u.Pos(), "&composite literal allocates")
	}
}

func (c *checker) localVar(id *ast.Ident) *types.Var {
	if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && !analysis.IsPkgLevel(v) {
		return v
	}
	return nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteish(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// calleeLabel renders sched.(*State).Candidates-style names for the
// functions a checked body calls.
func calleeLabel(fn *types.Func) string {
	if fn.Pkg() == nil {
		return analysis.FuncLabel(fn)
	}
	return fn.Pkg().Name() + "." + analysis.FuncLabel(fn)
}
