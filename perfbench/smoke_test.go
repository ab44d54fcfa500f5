package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// namedEndToEnd lists, per workload, the end-to-end metrics printed on the
// human-readable "e2e" lines besides the shared JSON slots.
var namedEndToEnd = map[string][]string{
	"scale": {"setup_s", "failed_frac", "peak_rss_mb", "scale.append_tasks_per_s", "scale.insertion_tasks_per_s"},
	"paper": {"setup_s", "failed_frac", "peak_rss_mb", "paper.schedules_per_s", "paper.static_replays_per_s",
		"paper.timed_replays_per_s", "paper.online_replays_per_s"},
	"serve": {"setup_s", "failed_frac", "peak_rss_mb", "serve.probe_p50_ms", "serve.p50_ms", "serve.p99_ms", "serve.hot_p50_ms",
		"serve.warm_p50_ms", "serve.cold_p50_ms", "serve.max_rps"},
}

func runSmoke(t *testing.T, workload, trace string) (lines []string, res result) {
	t.Helper()
	var stdout bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke", "--workdir", t.TempDir()}
	if err := run(args, &stdout); err != nil {
		t.Fatalf("%s trace %s: %v", workload, trace, err)
	}
	lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line is not the result object: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace %s: correct=%t attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return lines, res
}

// checkMetrics asserts that got holds exactly the metrics of want, each
// with its unit.
func checkMetrics(t *testing.T, label string, got map[string]metricValue, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", label, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, m.Name, v.Unit, m.Unit)
		}
	}
}

func digestLine(lines []string, prefix string) string {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix+" ") {
			return l[len(prefix)+1:]
		}
	}
	return ""
}

// TestSmoke runs every workload once plain and once traced at the smoke
// sizes, and checks the output against BENCHMARK.json: every end-to-end
// and per-layer metric is emitted with its unit, the run is correct, and
// tracing changes no output digest.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			lines, res := runSmoke(t, w, "0")
			checkMetrics(t, w+" end-to-end", res.Metrics, spec.EndToEnd)
			for _, name := range namedEndToEnd[w] {
				found := false
				for _, l := range lines {
					if f := strings.Fields(l); len(f) == 4 && f[0] == "e2e" && f[1] == name && f[3] != "" {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: no e2e line with a unit for %s", w, name)
				}
			}
			traced, tres := runSmoke(t, w, "1")
			checkMetrics(t, w+" per-layer", tres.Metrics, spec.PerLayer)
			plain := digestLine(lines, "digest")
			if plain == "" || plain != digestLine(traced, "digest") || plain != digestLine(traced, "digest-traced") {
				t.Errorf("%s: digests differ: untraced %q, traced run %q / %q", w, plain,
					digestLine(traced, "digest"), digestLine(traced, "digest-traced"))
			}
		})
	}
}

func TestParseFlagsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "scale", "--seconds", "0"},
		{"--workload", "scale", "--trace", "2"},
		{"--workload", "scale", "extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted bad input", args)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A root [0,10) with children [1,4) and [3,6) (overlapping, as from
	// two goroutines) and a grandchild inside the first child.
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "b", Start: 3, End: 6, Parent: 0},
		{Name: "c", Start: 2, End: 3, Parent: 1},
	}
	want := []int64{5, 2, 3, 1}
	for i, got := range selfTimes(spans) {
		if int64(got) != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}
