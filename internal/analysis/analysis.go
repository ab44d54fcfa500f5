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
// the shared FileSet. Two deliberate deviations: passes get a
// repo-specific Directives index (our substitute for the Facts
// mechanism, see directive.go), and there is no analyzer dependency
// graph — the six caftvet analyzers are independent.
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
