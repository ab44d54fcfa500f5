// Command caftvet mechanically enforces the repo's determinism,
// scratch-aliasing, error-sentinel, goroutine-confinement and
// zero-allocation contracts (DESIGN.md S8 and S10) with six
// analyzers:
//
//	confine       //caft:confined values crossing a goroutine boundary
//	errsentinel   ==/!= against exported Err... sentinels -> errors.Is
//	maporder      map iteration in //caft:deterministic packages
//	nondet        ambient time/rand/env/scheduler reads in those packages
//	scratchalias  retained results of //caft:scratch methods
//	zeroalloc     allocation sites in //caft:zeroalloc functions
//
// Usage:
//
//	caftvet [-run a,b] [-json] [packages]   # default ./...
//
// caftvet type-checks and analyzes the matched packages, and parses
// every dependency outside the standard library for its directives
// alone, so cross-package //caft:scratch, //caft:confined and
// //caft:zeroalloc annotations are visible whichever subset of the
// module is named.
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics found
// (matching go vet's convention).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"caft/internal/analysis"
	"caft/internal/analysis/passes"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("caftvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runFilter = fs.String("run", "", "comma-separated analyzer names to run (default: all)")
		jsonOut   = fs.Bool("json", false, "emit diagnostics as JSON")
		list      = fs.Bool("list", false, "list analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: caftvet [-run a,b] [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range passes.All() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *list {
		for _, a := range passes.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	enabled, err := selectAnalyzers(*runFilter)
	if err != nil {
		fmt.Fprintln(stderr, "caftvet:", err)
		return 1
	}

	rest := fs.Args()
	if len(rest) == 0 {
		rest = []string{"./..."}
	}

	pkgs, err := analysis.Load("", rest...)
	if err != nil {
		fmt.Fprintln(stderr, "caftvet:", err)
		return 1
	}
	findings, err := analysis.Run(pkgs, enabled)
	if err != nil {
		fmt.Fprintln(stderr, "caftvet:", err)
		return 1
	}
	emit(findings, *jsonOut, stdout, stderr)
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// emit prints findings: plain "file:line:col: analyzer: message" lines
// to stderr, or (with -json) a pkg -> analyzer -> diagnostics object
// to stdout, mirroring go vet's shapes.
func emit(findings []analysis.Finding, jsonOut bool, stdout, stderr io.Writer) {
	if !jsonOut {
		for _, f := range findings {
			fmt.Fprintf(stderr, "%s: %s: %s\n", f.Posn, f.Analyzer, f.Message)
		}
		return
	}
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	out := make(map[string]map[string][]jsonDiag)
	for _, f := range findings {
		byAnalyzer := out[f.PkgPath]
		if byAnalyzer == nil {
			byAnalyzer = make(map[string][]jsonDiag)
			out[f.PkgPath] = byAnalyzer
		}
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], jsonDiag{Posn: f.Posn.String(), Message: f.Message})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "\t")
	_ = enc.Encode(out)
}

func selectAnalyzers(filter string) ([]*analysis.Analyzer, error) {
	all := passes.All()
	if filter == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(filter, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, names(all))
		}
		out = append(out, a)
	}
	return out, nil
}

func names(as []*analysis.Analyzer) string {
	var ns []string
	for _, a := range as {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}
