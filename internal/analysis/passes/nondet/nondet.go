// Package nondet flags reads of ambient nondeterministic state —
// wall clocks, the global math/rand generator, the process
// environment, and scheduler geometry — inside packages marked
// //caft:deterministic.
//
// The repo's reproducibility story is that every randomized quantity
// flows from an explicitly seeded *rand.Rand and every timestamp from
// the schedule itself, so that figures, golden TSVs and caftd
// response bytes are identical across runs, machines and -workers
// settings. An undisciplined time.Now or rand.Intn deep in a library
// package breaks that silently; this analyzer makes it loud.
//
// Flagged in deterministic packages:
//
//   - time.Now, time.Since, time.Until — ambient clock reads — and
//     time.After, time.Tick, time.NewTimer, time.NewTicker, which
//     start wall-clock timers (simulated time comes from the
//     schedule, never from a timer firing);
//   - crypto/rand.Read, Int, Prime, Text — the system entropy pool
//     (os.ReadDir ordering, by contrast, is sorted and fine);
//   - package-level math/rand and math/rand/v2 functions (rand.Intn,
//     rand.Shuffle, ...) — the process-global generator; methods on
//     an explicit *rand.Rand are the sanctioned alternative and are
//     not flagged (constructors like rand.New, rand.NewSource are
//     likewise fine);
//   - os.Getenv, os.LookupEnv, os.Environ — environment-dependent
//     branching;
//   - runtime.NumCPU, runtime.GOMAXPROCS, runtime.NumGoroutine —
//     values that vary with the machine or the moment, the classic
//     source of worker-count-dependent output.
//
// Test files are outside the analysis (GoFiles never includes them)
// and package main is exempt: binaries own the process boundary, and
// wiring wall-clock timing to stderr there is deliberate. A library
// call that is genuinely benign — a worker-pool size that cannot
// reach any output because results merge in fixed order — carries
// //caft:nondet-ok <reason> on its line.
package nondet

import (
	"go/ast"
	"go/types"
	"strings"

	"caft/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "nondet",
	Doc:  "flags ambient time/rand/env/scheduler reads in //caft:deterministic packages",
	Run:  run,
}

// badCalls maps package path -> function name -> hazard description.
var badCalls = map[string]map[string]string{
	"time": {
		"Now":       "reads the wall clock",
		"Since":     "reads the wall clock",
		"Until":     "reads the wall clock",
		"After":     "starts a wall-clock timer",
		"Tick":      "starts a wall-clock ticker",
		"NewTimer":  "starts a wall-clock timer",
		"NewTicker": "starts a wall-clock ticker",
	},
	"crypto/rand": {
		"Read":  "draws from the system entropy pool",
		"Int":   "draws from the system entropy pool",
		"Prime": "draws from the system entropy pool",
		"Text":  "draws from the system entropy pool",
	},
	"os": {
		"Getenv":    "makes behavior depend on the process environment",
		"LookupEnv": "makes behavior depend on the process environment",
		"Environ":   "makes behavior depend on the process environment",
	},
	"runtime": {
		"NumCPU":       "varies with the machine",
		"GOMAXPROCS":   "varies with the machine and runtime settings",
		"NumGoroutine": "varies with scheduling",
	},
}

func run(pass *analysis.Pass) (any, error) {
	det := pass.Directives.Deterministic(pass.Pkg.Path()) && pass.Pkg.Name() != "main"
	for _, f := range pass.Files {
		if det {
			checkFile(pass, f)
		}
		for _, ld := range pass.Directives.UnusedIn(pass.Fset, f, "nondet-ok") {
			pass.Reportf(ld.Pos, "stale //caft:nondet-ok: no suppressed nondeterministic call on this or the next line (is the package marked //caft:deterministic?)")
		}
	}
	return nil, nil
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.Callee(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return true // methods (e.g. on a seeded *rand.Rand) are fine
		}
		hazard, ok := hazardOf(fn)
		if !ok {
			return true
		}
		if ld, ok := pass.Directives.SuppressedAt(pass.Fset, call.Pos(), "nondet-ok"); ok {
			if ld.Reason == "" {
				pass.Reportf(call.Pos(), "//caft:nondet-ok on this call needs a reason: say why the value cannot reach an output")
			}
			return true
		}
		pass.Reportf(call.Pos(), "call to %s.%s in deterministic package %s %s; thread the value in explicitly (seeded *rand.Rand, caller-supplied clock or config) or annotate with //caft:nondet-ok <reason>", fn.Pkg().Path(), fn.Name(), pass.Pkg.Path(), hazard)
		return true
	})
}

func hazardOf(fn *types.Func) (string, bool) {
	path := fn.Pkg().Path()
	if path == "math/rand" || path == "math/rand/v2" {
		// Constructors hand out explicitly seeded state; everything
		// else drives the process-global generator.
		if strings.HasPrefix(fn.Name(), "New") {
			return "", false
		}
		return "draws from the process-global generator", true
	}
	if m := badCalls[path]; m != nil {
		if hazard, ok := m[fn.Name()]; ok {
			return hazard, true
		}
	}
	return "", false
}
