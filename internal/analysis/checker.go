package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one positioned diagnostic from one analyzer.
type Finding struct {
	Analyzer string
	PkgPath  string
	Posn     token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Posn, f.Analyzer, f.Message)
}

// Run applies every analyzer to every package without DepOnly and
// returns the findings sorted by file, line, column and analyzer name.
// The directive index is built over all packages first, DepOnly ones
// included, so cross-package annotations (a //caft:scratch method
// called from another package) are visible to every pass. The parent
// index is built once per analyzed package and shared by its passes.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	dirs := NewDirectives()
	for _, p := range pkgs {
		dirs.AddPackage(p)
	}
	var findings []Finding
	for _, p := range pkgs {
		if p.DepOnly {
			continue
		}
		parents := parentIndex(p.Syntax)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       p.Fset,
				Files:      p.Syntax,
				Pkg:        p.Types,
				TypesInfo:  p.TypesInfo,
				Directives: dirs,
				parents:    parents,
			}
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					PkgPath:  p.PkgPath,
					Posn:     p.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, p.PkgPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Posn.Filename != b.Posn.Filename {
			return a.Posn.Filename < b.Posn.Filename
		}
		if a.Posn.Line != b.Posn.Line {
			return a.Posn.Line < b.Posn.Line
		}
		if a.Posn.Column != b.Posn.Column {
			return a.Posn.Column < b.Posn.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
