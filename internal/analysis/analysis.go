// Package analysis is a deliberately small, dependency-free core for
// writing static analyzers over this module, shaped after
// golang.org/x/tools/go/analysis so that analyzers written against it
// port mechanically if the real framework ever becomes available.
//
// Why not x/tools itself: this repository builds offline against the
// standard library only. The three pieces x/tools would provide —
// package loading, the Analyzer/Pass contract, and the analysistest
// harness — are reimplemented here on top of `go list -export` (see
// load.go), which the toolchain itself guarantees to be present.
//
// The contract mirrors x/tools where it matters: an Analyzer is a
// named Run function over a Pass; a Pass exposes the package's syntax,
// type information and a Report sink; diagnostics carry positions into
// the shared FileSet. Three deliberate deviations: passes get a
// repo-specific Directives index (our substitute for the Facts
// mechanism, see directive.go); Run builds one syntax parent index per
// package and every Pass reads it through Parent (x/tools shares an
// inspector through Requires instead); and there is no analyzer
// dependency graph — the six caftvet analyzers are independent.
//
//caft:deterministic
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	// It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph description shown by caftvet -list.
	Doc string

	// Run applies the analyzer to one package. It reports findings
	// through pass.Report and returns an optional result (unused by
	// the caftvet driver, kept for x/tools API parity).
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer run with everything it may inspect
// about a single package. Analyzers must treat all fields as
// read-only.
type Pass struct {
	Analyzer *Analyzer

	// Fset is the file set shared by every package of the load.
	Fset *token.FileSet

	// Files holds the parsed non-test Go files of the package, with
	// comments.
	Files []*ast.File

	// Pkg and TypesInfo are the type-checked package and its
	// expression/object tables (Types, Defs, Uses, Selections,
	// Implicits, Scopes and Instances are populated).
	Pkg       *types.Package
	TypesInfo *types.Info

	// Directives indexes every //caft: directive visible to this run:
	// those of the analyzed package and of every other package loaded
	// alongside it, including the DepOnly packages Load parses for
	// their directives alone. See directive.go.
	Directives *Directives

	// Report delivers one diagnostic. It may be called concurrently
	// only from a single goroutine (analyzers here are sequential).
	Report func(Diagnostic)

	// parents maps every node of Files to its syntactic parent; Run
	// builds it once per package and shares it across the analyzers.
	parents map[ast.Node]ast.Node
}

// Parent returns the syntactic parent of n, or nil for a file root or
// a node outside the package's files.
func (p *Pass) Parent(n ast.Node) ast.Node { return p.parents[n] }

// Callee returns the function or method call names, when that is
// statically known: nil for calls through function values, for
// conversions and for builtins.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within the pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional
	Message string
}

// IsPkgLevel reports whether v is a package-level variable.
func IsPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// FuncLabel renders (*State).ProcsOf-style names for diagnostics: the
// function's name, qualified by its receiver's type name (type
// arguments dropped) for a method.
func FuncLabel(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		if n, ok := p.Elem().(*types.Named); ok {
			return "(*" + n.Obj().Name() + ")." + fn.Name()
		}
	}
	if n, ok := rt.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// parentIndex records the parent of every node in files.
func parentIndex(files []*ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return parents
}
