// Package analysistest runs an analyzer over a testdata package and
// checks its diagnostics against expectations written in the source,
// following the golang.org/x/tools/go/analysis/analysistest
// convention:
//
//	for k := range m { // want `iteration over map`
//
// A comment of the form `// want "rx" "rx" ...` (double-quoted or
// backquoted Go strings) expects exactly one diagnostic per pattern on
// the comment's line, each matching its regexp. Diagnostics without a
// matching expectation, and expectations without a matching
// diagnostic, fail the test.
//
// Test packages live under testdata/src/<pkg> next to the analyzer, a
// layout the go tool skips during ./... expansion but happily lists
// (and compiles) when named explicitly, which is how the loader picks
// them up.
package analysistest

import (
	"go/ast"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"caft/internal/analysis"
)

var wantRE = regexp.MustCompile("(?:\"(?:[^\"\\\\]|\\\\.)*\")|(?:`[^`]*`)")

type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// Run loads the pkgdirs (paths relative to the test's working
// directory, e.g. "testdata/src/a"), applies the analyzer, and reports
// any mismatch between produced diagnostics and // want expectations.
// Passing several directories loads them as one world — the directive
// index spans all of them, which is how cross-package annotation cases
// are exercised.
func Run(t *testing.T, a *analysis.Analyzer, pkgdirs ...string) {
	t.Helper()
	patterns := make([]string, len(pkgdirs))
	for i, d := range pkgdirs {
		patterns[i] = "./" + d
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		t.Fatalf("loading %v: %v", pkgdirs, err)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	// Only analyzed packages carry expectations: a DepOnly dependency's
	// // want comments belong to the test that analyzes it.
	var wants []*expectation
	for _, p := range pkgs {
		if p.DepOnly {
			continue
		}
		for _, f := range p.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					wants = append(wants, parseWants(t, p, c)...)
				}
			}
		}
	}

	for _, f := range findings {
		if !consume(wants, f) {
			t.Errorf("%s: unexpected diagnostic: %s", f.Posn, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// parseWants extracts the expectations of one comment.
func parseWants(t *testing.T, p *analysis.Package, c *ast.Comment) []*expectation {
	t.Helper()
	text := c.Text
	i := strings.Index(text, "// want ")
	if i < 0 {
		return nil
	}
	posn := p.Fset.Position(c.Pos())
	var out []*expectation
	for _, q := range wantRE.FindAllString(text[i+len("// want "):], -1) {
		var pat string
		if q[0] == '`' {
			pat = q[1 : len(q)-1]
		} else {
			var err error
			pat, err = strconv.Unquote(q)
			if err != nil {
				t.Errorf("%s: bad want pattern %s: %v", posn, q, err)
				continue
			}
		}
		rx, err := regexp.Compile(pat)
		if err != nil {
			t.Errorf("%s: bad want regexp %q: %v", posn, pat, err)
			continue
		}
		out = append(out, &expectation{file: posn.Filename, line: posn.Line, rx: rx})
	}
	if len(out) == 0 {
		t.Errorf("%s: want comment with no patterns: %q", posn, text)
	}
	return out
}

func consume(wants []*expectation, f analysis.Finding) bool {
	for _, w := range wants {
		if !w.matched && w.file == f.Posn.Filename && w.line == f.Posn.Line && w.rx.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
