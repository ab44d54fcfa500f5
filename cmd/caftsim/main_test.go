package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden files from the current engine (the
// one shared golden-file convention; see EXPERIMENTS.md):
//
//	go test ./cmd/caftsim -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files from current output")

func TestRunRejectsUnknownFigure(t *testing.T) {
	for _, bad := range []string{"7", "0", "x", "1d", "abc"} {
		if err := run(io.Discard, bad, 1, 1, "", 1, 3200, ""); err == nil {
			t.Errorf("figure %q accepted", bad)
		}
	}
}

// Nonsense flag values must be rejected with a pointed message instead
// of producing empty or degenerate TSV (the pre-fix behavior for
// -graphs 0, negative -workers and an undershooting -vmax), and so must
// a flag the chosen table ignores.
func TestRunRejectsBadFlagValues(t *testing.T) {
	cases := []struct {
		name    string
		figure  string
		graphs  int
		plotDir string
		workers int
		vmax    int
		alg     string
		wantMsg string
	}{
		{"zero graphs", "1a", 0, "", 1, 3200, "", "-graphs must be positive, got 0"},
		{"negative graphs", "1a", -3, "", 1, 3200, "", "-graphs must be positive, got -3"},
		{"zero graphs special figure", "messages", 0, "", 1, 3200, "", "-graphs must be positive, got 0"},
		{"negative workers", "1a", 1, "", -2, 3200, "", "-workers must be non-negative (0 = all cores), got -2"},
		{"vmax below smallest size", "scale", 1, "", 1, 50, "", "-vmax 50 is below the smallest scale size 100"},
		{"unknown alg", "jitter", 1, "", 1, 3200, "nope", `-alg "nope" is not a registered scheduler (want heft, caft, caft-greedy, ftsa, ftbar, hoft)`},
		{"alg on figure", "1a", 1, "", 1, 3200, "hoft", "-alg applies to -figure jitter only, not 1a"},
		{"alg on reliability", "reliability", 1, "", 1, 3200, "hoft", "-alg applies to -figure jitter only, not reliability"},
		{"plot on messages", "messages", 1, "plots", 1, 3200, "", "-plot applies to figures 1-6, all and reliability only, not messages"},
		{"plot on ablation", "ablation", 1, "plots", 1, 3200, "", "-plot applies to figures 1-6, all and reliability only, not ablation"},
		{"plot on accuracy", "accuracy", 1, "plots", 1, 3200, "", "-plot applies to figures 1-6, all and reliability only, not accuracy"},
		{"plot on sparse", "sparse", 1, "plots", 1, 3200, "", "-plot applies to figures 1-6, all and reliability only, not sparse"},
		{"plot on scale", "scale", 1, "plots", 1, 3200, "", "-plot applies to figures 1-6, all and reliability only, not scale"},
		{"plot on online", "online", 1, "plots", 1, 3200, "", "-plot applies to figures 1-6, all and reliability only, not online"},
		{"plot on jitter", "jitter", 1, "plots", 1, 3200, "", "-plot applies to figures 1-6, all and reliability only, not jitter"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(io.Discard, c.figure, c.graphs, 1, c.plotDir, c.workers, c.vmax, c.alg)
			if err == nil {
				t.Fatal("accepted")
			}
			if err.Error() != c.wantMsg {
				t.Errorf("message %q, want %q", err, c.wantMsg)
			}
		})
	}
}

func TestRunPanelSelection(t *testing.T) {
	// Tiny runs: 1 graph per point would still sweep 10 granularities,
	// so exercise only the cheapest figure with panel filters.
	for _, fig := range []string{"1a", "1b", "1c"} {
		if err := run(io.Discard, fig, 1, 1, "", 0, 3200, ""); err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
	}
}

// TestRunWritesPlots pins the -plot path: each run drops a data file
// and a gnuplot script naming it, with one data row per plotted point.
func TestRunWritesPlots(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		figure, name string
		rows         int
	}{
		{"1a", "figure1", 10},             // one row per granularity
		{"reliability", "reliability", 7}, // the MTBF sweep only
	}
	for _, c := range cases {
		if err := run(io.Discard, c.figure, 1, 1, dir, 0, 3200, ""); err != nil {
			t.Fatalf("figure %s: %v", c.figure, err)
		}
		script, err := os.ReadFile(filepath.Join(dir, c.name+".gp"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(script), `"`+c.name+`.dat"`) {
			t.Errorf("%s.gp does not plot %s.dat", c.name, c.name)
		}
		data, err := os.ReadFile(filepath.Join(dir, c.name+".dat"))
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if !strings.HasPrefix(line, "#") {
				rows++
			}
		}
		if rows != c.rows {
			t.Errorf("%s.dat has %d data rows, want %d", c.name, rows, c.rows)
		}
	}
}

// TestGoldenOutput pins the exact bytes of the TSV the CLI emits for a
// small seeded run of the classic figure 1 and of the reliability
// figure. Output-format drift — column changes, float formatting,
// header wording — fails here instead of silently changing plots, and
// running every case at two worker counts pins the engine's
// determinism guarantee: the bytes must not depend on scheduling.
// Stderr must stay empty: it carries errors only.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden string
		figure string
		graphs int
		vmax   int
	}{
		{"figure1_g2_seed1.tsv", "1", 2, 3200},
		{"reliability_g2_seed1.tsv", "reliability", 2, 3200},
		// The scale sweep is capped at v=400 to stay affordable in CI
		// while still crossing the paper's v in [80,120] regime.
		{"scale_g2_v400_seed1.tsv", "scale", 2, 400},
		{"online_g2_seed1.tsv", "online", 2, 3200},
		{"jitter_g2_seed1.tsv", "jitter", 2, 3200},
		{"messages_g2_seed1.tsv", "messages", 2, 3200},
		{"ablation_g2_seed1.tsv", "ablation", 2, 3200},
		{"accuracy_g2_seed1.tsv", "accuracy", 2, 3200},
		{"sparse_g2_seed1.tsv", "sparse", 2, 3200},
	}
	for _, c := range cases {
		t.Run(c.figure, func(t *testing.T) {
			path := filepath.Join("testdata", c.golden)
			var first []byte
			for _, workers := range []int{1, 8} {
				var buf bytes.Buffer
				stderr := captureStderr(t)
				if err := run(&buf, c.figure, c.graphs, 1, "", workers, c.vmax, ""); err != nil {
					t.Fatal(err)
				}
				if got, err := os.ReadFile(stderr.Name()); err != nil {
					t.Fatal(err)
				} else if len(got) > 0 {
					t.Fatalf("figure %s at -workers %d wrote to stderr:\n%s", c.figure, workers, got)
				}
				if first == nil {
					first = buf.Bytes()
				} else if !bytes.Equal(first, buf.Bytes()) {
					t.Fatalf("figure %s output differs between -workers 1 and -workers 8", c.figure)
				}
			}
			if *update {
				if err := os.WriteFile(path, first, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(first, want) {
				t.Fatalf("figure %s output drifted from %s;\nif intentional, regenerate with: go test ./cmd/caftsim -run Golden -update\ngot:\n%s\nwant:\n%s",
					c.figure, path, first, want)
			}
		})
	}
}

// captureStderr points os.Stderr at a fresh temporary file until t ends
// and returns that file.
func captureStderr(t *testing.T) *os.File {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = f
	t.Cleanup(func() {
		os.Stderr = saved
		f.Close()
	})
	return f
}
