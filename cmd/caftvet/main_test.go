package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden files from the current analyzers:
//
//	go test ./cmd/caftvet -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files from current output")

func runCaftvet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCleanFixtureExitsZero(t *testing.T) {
	code, stdout, stderr := runCaftvet(t, "./testdata/src/scratchlib", "./testdata/src/clean")
	if code != 0 {
		t.Fatalf("caftvet over clean fixture: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stderr != "" {
		t.Fatalf("clean fixture produced diagnostics:\n%s", stderr)
	}
}

// TestDirtyFixtureFiresEveryAnalyzer proves each analyzer produces at
// least one diagnostic through the real driver, and — because the
// scratch misuse in dirty aliases an annotation declared in
// scratchlib — that cross-package annotations are visible in
// standalone mode.
func TestDirtyFixtureFiresEveryAnalyzer(t *testing.T) {
	code, _, stderr := runCaftvet(t, "./testdata/src/scratchlib", "./testdata/src/dirty")
	if code != 2 {
		t.Fatalf("caftvet over dirty fixture: exit %d, want 2\nstderr: %s", code, stderr)
	}
	for _, analyzer := range []string{"confine", "errsentinel", "maporder", "nondet", "scratchalias", "zeroalloc"} {
		if !strings.Contains(stderr, analyzer+": ") {
			t.Errorf("dirty fixture: no %s diagnostic in output:\n%s", analyzer, stderr)
		}
	}
	if !strings.Contains(stderr, "ItemsCopy") {
		t.Errorf("scratchalias diagnostic does not steer to the safe variant:\n%s", stderr)
	}
}

func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runCaftvet(t, "-json", "./testdata/src/scratchlib", "./testdata/src/dirty")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	var parsed map[string]map[string][]struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &parsed); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout)
	}
	dirty := parsed["caft/cmd/caftvet/testdata/src/dirty"]
	if len(dirty) != 6 {
		t.Fatalf("want diagnostics from 6 analyzers for dirty, got %d: %v", len(dirty), dirty)
	}
}

func TestRunFilter(t *testing.T) {
	code, _, stderr := runCaftvet(t, "-run", "maporder", "./testdata/src/dirty")
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, stderr)
	}
	if strings.Contains(stderr, "nondet: ") || strings.Contains(stderr, "errsentinel: ") {
		t.Fatalf("-run maporder ran other analyzers:\n%s", stderr)
	}
	if code, _, stderr := runCaftvet(t, "-run", "nosuch"); code != 1 || !strings.Contains(stderr, "unknown analyzer") {
		t.Fatalf("-run nosuch: exit %d, stderr %q", code, stderr)
	}
}

// TestDependencyDirectivesWithoutPattern vets dirty on its own, with
// scratchlib outside the pattern: the annotations declared there must
// still steer every analyzer, exactly as when both are named.
func TestDependencyDirectivesWithoutPattern(t *testing.T) {
	code, _, stderr := runCaftvet(t, "./testdata/src/dirty")
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, stderr)
	}
	_, _, both := runCaftvet(t, "./testdata/src/scratchlib", "./testdata/src/dirty")
	if stderr != both {
		t.Errorf("dirty alone reports\n%s\nwant what dirty with scratchlib reports\n%s", stderr, both)
	}
	for _, want := range []string{
		"scratchalias: result of //caft:scratch (*Buf).Items",
		"confine: confined scratchlib.Core",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("no %q finding:\n%s", want, stderr)
		}
	}
	if !strings.Contains(stderr, "ItemsCopy") {
		t.Errorf("scratchalias finding does not steer to ItemsCopy:\n%s", stderr)
	}
	if strings.Contains(stderr, "scratchlib.Sum") {
		t.Errorf("zeroalloc flagged scratchlib.Sum, which is marked //caft:zeroalloc:\n%s", stderr)
	}
}

// TestGoldenDirtyOutput pins the full text of every diagnostic over the
// dirty fixture, plain and -json, with file paths relative to this
// directory. The // want regexes of the analyzer tests match only part
// of each message; this golden holds the rest (labels, steering hints,
// ordering).
func TestGoldenDirtyOutput(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"dirty.golden", nil},
		{"dirty_json.golden", []string{"-json"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			args := append(c.args, "./testdata/src/scratchlib", "./testdata/src/dirty")
			code, stdout, stderr := runCaftvet(t, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr)
			}
			got := []byte(strings.ReplaceAll(stdout+stderr, wd+string(filepath.Separator), ""))
			path := filepath.Join("testdata", c.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("caftvet output drifted from %s;\nif intentional, regenerate with: go test ./cmd/caftvet -run Golden -update\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
