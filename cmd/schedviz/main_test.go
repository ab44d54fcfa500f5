package main

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caft/internal/gen"
	"caft/internal/sched"
)

// -update regenerates the golden files from the current engine (the
// one shared golden-file convention; see EXPERIMENTS.md):
//
//	go test ./cmd/schedviz -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestGoldenGantt pins the exact ASCII Gantt chart, port lanes and
// crash-replay summary schedviz renders for a seeded deterministic run.
// Chart-format drift — lane layout, glyphs, the replay line — fails
// here instead of silently changing every demo in the docs.
func TestGoldenGantt(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, strings.NewReader(""), "caft", 1, 4, "montage", 1.0, 1, 72, true, "1", "", "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "gantt_montage_caft.txt")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("Gantt output drifted from %s;\nif intentional, regenerate with: go test ./cmd/schedviz -run Golden -update\ngot:\n%s\nwant:\n%s",
			path, out.Bytes(), want)
	}
	if !strings.Contains(out.String(), "replay: latency") {
		t.Error("crash replay summary missing from output")
	}
}

func TestRunEveryAlgoAndStdin(t *testing.T) {
	for _, algo := range sched.Names() {
		var out bytes.Buffer
		if err := run(&out, strings.NewReader(""), algo, 1, 4, "fork", 1.0, 1, 60, false, "", "", ""); err != nil {
			t.Fatalf("algo %s: %v", algo, err)
		}
		if out.Len() == 0 {
			t.Fatalf("algo %s produced no chart", algo)
		}
	}
	// A DAG arriving on stdin (the dagen | schedviz pipeline).
	var dagJSON bytes.Buffer
	if err := gen.Diamond(3, 2, 100).Write(&dagJSON); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, &dagJSON, "heft", 0, 3, "", 1.0, 1, 60, false, "", "", ""); err != nil {
		t.Fatalf("stdin DAG: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	cases := []struct {
		algo, kind, crash string
	}{
		{"nosuch", "fork", ""},
		{"caft", "nosuch", ""},
		{"caft", "fork", "9"},  // crash processor out of range
		{"caft", "fork", "xy"}, // unparsable crash list
	}
	for _, c := range cases {
		if err := run(io.Discard, strings.NewReader(""), c.algo, 1, 4, c.kind, 1.0, 1, 60, false, c.crash, "", ""); err == nil {
			t.Errorf("algo=%q kind=%q crash=%q accepted", c.algo, c.kind, c.crash)
		}
	}
	// Garbage on stdin with no -kind must fail cleanly.
	if err := run(io.Discard, strings.NewReader("not json"), "caft", 1, 4, "", 1.0, 1, 60, false, "", "", ""); err == nil {
		t.Error("garbage stdin accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		m, width int
		gran     float64
	}{
		{-1, 60, 1},
		{0, 60, 1},
		{4, -5, 1},
		{4, 0, 1},
		{4, 60, 0},
		{4, 60, -1},
		{4, 60, math.NaN()},
		{4, 60, math.Inf(1)},
	}
	for _, c := range cases {
		if err := run(io.Discard, strings.NewReader(""), "caft", 1, c.m, "fork", c.gran, 1, c.width, false, "", "", ""); err == nil {
			t.Errorf("-m %d -width %d -granularity %v accepted", c.m, c.width, c.gran)
		}
	}
}

func TestTraceAndSVGOutputs(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "chart.svg")
	trace := filepath.Join(dir, "trace.csv")
	var out bytes.Buffer
	if err := run(&out, strings.NewReader(""), "ftsa", 1, 4, "fork", 1.0, 1, 60, false, "0", svg, trace); err != nil {
		t.Fatal(err)
	}
	svgData, err := os.ReadFile(svg)
	if err != nil || !bytes.Contains(svgData, []byte("<svg")) {
		t.Errorf("SVG output missing or malformed: %v", err)
	}
	traceData, err := os.ReadFile(trace)
	if err != nil || len(traceData) == 0 {
		t.Errorf("trace CSV missing or empty: %v", err)
	}
}
