package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// TestLoadModulePackages exercises the full loader path: source
// type-checking of matched packages and export-data import of std and
// module dependencies (internal/service pulls in net/http and its
// vendored std dependencies, plus module packages like internal/expt
// that are themselves matched — the mixed world that breaks naive
// source/export hybrids).
func TestLoadModulePackages(t *testing.T) {
	pkgs, err := Load("", "caft/internal/timeline", "caft/internal/sched", "caft/internal/service")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	for _, want := range []string{"caft/internal/timeline", "caft/internal/sched", "caft/internal/service"} {
		p := byPath[want]
		if p == nil {
			t.Fatalf("package %s not loaded (got %d packages)", want, len(pkgs))
		}
		if len(p.Syntax) == 0 || p.Types == nil || p.TypesInfo == nil {
			t.Fatalf("package %s loaded without syntax or types", want)
		}
		for _, f := range p.Syntax {
			if f.Comments == nil {
				t.Fatalf("package %s parsed without comments; directives would be invisible", want)
			}
			break
		}
	}

	// Within one pass the dependency view must be consistent: the
	// timeline.Timeline object sched resolves through its import must
	// be the one the shared export-data importer caches, so every
	// other matched package importing timeline agrees with it.
	var schedTL, svcTL *types.Package
	for _, imp := range depClosure(byPath["caft/internal/sched"].Types) {
		if imp.Path() == "caft/internal/timeline" {
			schedTL = imp
		}
	}
	for _, imp := range depClosure(byPath["caft/internal/service"].Types) {
		if imp.Path() == "caft/internal/timeline" {
			svcTL = imp
		}
	}
	if schedTL == nil || svcTL == nil {
		t.Fatal("timeline not found in the import graphs of sched and service")
	}
	if schedTL != svcTL {
		t.Fatal("sched and service resolve different timeline packages: shared importer cache broken")
	}

	// Uses/Selections must be populated for the analyzers.
	sched := byPath["caft/internal/sched"]
	var methods int
	for _, f := range sched.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if s, ok := sched.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
					methods++
				}
			}
			return true
		})
	}
	if methods == 0 {
		t.Fatal("no method selections recorded; TypesInfo is not usable")
	}
}

// TestLoadDependencyDirectives loads one package and checks that its
// module dependencies come back parsed with DepOnly set, and that no
// standard-library package does.
func TestLoadDependencyDirectives(t *testing.T) {
	pkgs, err := Load("", "caft/internal/sched")
	if err != nil {
		t.Fatal(err)
	}
	deps := map[string]*Package{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.PkgPath, "caft/") {
			t.Errorf("standard-library package %s loaded", p.PkgPath)
		}
		if !p.DepOnly {
			if p.PkgPath != "caft/internal/sched" {
				t.Errorf("%s loaded as a matched package", p.PkgPath)
			}
			continue
		}
		if p.Types != nil || p.TypesInfo != nil {
			t.Errorf("dependency %s was type-checked", p.PkgPath)
		}
		deps[p.PkgPath] = p
	}
	tl := deps["caft/internal/timeline"]
	if tl == nil {
		t.Fatalf("caft/internal/timeline not among the dependencies of sched (got %d packages)", len(pkgs))
	}
	if len(tl.Syntax) == 0 || tl.Syntax[0].Comments == nil {
		t.Fatal("timeline parsed without comments; its directives would be invisible")
	}
}

// depClosure returns the transitive imports of p.
func depClosure(p *types.Package) []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(*types.Package)
	walk = func(q *types.Package) {
		for _, imp := range q.Imports() {
			if !seen[imp] {
				seen[imp] = true
				out = append(out, imp)
				walk(imp)
			}
		}
	}
	walk(p)
	return out
}
