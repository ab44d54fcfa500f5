package expt

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
)

// RunScale's output must be a pure function of (sizes, graphs, seed):
// identical for any worker count.
func TestRunScaleDeterministicAcrossWorkers(t *testing.T) {
	sizes := []int{20, 40}
	var first []byte
	for _, workers := range []int{1, 8} {
		var buf bytes.Buffer
		if err := RunScale(&buf, sizes, 2, 3, workers); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("scale output differs between -workers 1 and 8:\n%s\nvs\n%s", first, buf.Bytes())
		}
	}
	out := string(first)
	// 2 sizes x 2 policies x 5 algorithms data rows + header comment +
	// column header.
	if got, want := strings.Count(out, "\n"), 2+2*2*5; got != want {
		t.Fatalf("scale output has %d lines, want %d:\n%s", got, want, out)
	}
	for _, needle := range []string{"20\tappend\tHEFT", "40\tinsertion\tFTBAR"} {
		if !strings.Contains(out, needle) {
			t.Errorf("scale output missing row %q:\n%s", needle, out)
		}
	}
	// The fault-tolerant schedulers place at least eps+1 replicas per
	// task; a quick sanity scan of the CAFT rows.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "\tCAFT\t") && strings.HasPrefix(line, "20\t") {
			fields := strings.Split(line, "\t")
			if len(fields) != 6 {
				t.Fatalf("malformed row %q", line)
			}
			reps, err := strconv.ParseFloat(fields[4], 64)
			if err != nil || reps < 40 { // (eps+1) replicas of 20 tasks
				t.Errorf("CAFT replica count %q below (eps+1)*v", fields[4])
			}
		}
	}
	if err := RunScale(io.Discard, nil, 1, 1, 1); err == nil {
		t.Error("empty size sweep accepted")
	}
}

// Every table rejects a negative graph count.
func TestRunRejectsNegativeGraphs(t *testing.T) {
	runs := []struct {
		name string
		run  func(graphs int) error
	}{
		{"figure", func(graphs int) error {
			cfg, _ := FigureConfig(1, graphs, 1)
			_, err := cfg.Run()
			return err
		}},
		{"messages", func(graphs int) error { return RunMessages(io.Discard, graphs, 1, 1) }},
		{"ablation", func(graphs int) error { return RunAblation(io.Discard, graphs, 1, 1) }},
		{"accuracy", func(graphs int) error { return RunAccuracy(io.Discard, graphs, 1, 1) }},
		{"sparse", func(graphs int) error { return RunSparse(io.Discard, graphs, 1, 1) }},
		{"reliability", func(graphs int) error {
			_, err := RunReliability(io.Discard, graphs, 1, 1)
			return err
		}},
		{"online", func(graphs int) error {
			_, err := RunOnline(io.Discard, graphs, 1, 1)
			return err
		}},
		{"jitter", func(graphs int) error {
			_, err := RunJitter(io.Discard, graphs, 1, 1, "")
			return err
		}},
		{"scale", func(graphs int) error { return RunScale(io.Discard, []int{20}, graphs, 1, 1) }},
	}
	for _, r := range runs {
		if err := r.run(-1); err == nil || err.Error() != "expt: negative graph count -1" {
			t.Errorf("%s: error %v, want negative graph count", r.name, err)
		}
	}
}

// TestRunScaleLargeSmoke exercises the large-size path of the sweep —
// bounded candidate probing and the FTBAR skip above scaleFullMax — at
// v=10^4 with a single graph. It runs in -short mode as the CI smoke
// for the 10^5 tail of ScaleSizes: the same code path, two decades
// cheaper.
func TestRunScaleLargeSmoke(t *testing.T) {
	const v = 10000
	if v <= scaleFullMax {
		t.Fatalf("smoke size %d does not reach the bounded-probing regime (scaleFullMax=%d)", v, scaleFullMax)
	}
	var out bytes.Buffer
	if err := RunScale(&out, []int{v}, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// FTBAR is dropped above scaleFullMax; everyone else reports.
	if strings.Contains(s, "FTBAR") {
		t.Errorf("FTBAR row present above scaleFullMax:\n%s", s)
	}
	for _, alg := range []string{"HEFT", "CAFT", "FTSA", "HOFT"} {
		for _, pol := range []string{"append", "insertion"} {
			needle := "10000\t" + pol + "\t" + alg
			if !strings.Contains(s, needle) {
				t.Errorf("scale output missing row %q:\n%s", needle, s)
			}
		}
	}
}
