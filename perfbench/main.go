// Command perfbench is caft's end-to-end and per-layer benchmark. One run
// measures one workload in its own process:
//
//	perfbench --workload scale|paper|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it times the workload's end-to-end runner and prints the
// end-to-end metrics. With --trace 1 it runs the same runner twice, once
// plain and once with the span recorder on (the difference is the tracing
// overhead), then times every layer's public calls on their own and prints
// the per-layer metrics. The workload parameters live in workloads.json,
// compiled into the binary; --smoke selects its tiny sizes.
//
// Set-up and the timed sections of work are measured in the process's CPU
// time (see watch); serve's open-loop latencies are wall time from each
// request's due time, and its latency probe's from each send.
//
// Human-readable lines go first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	_ "caft/internal/sched/all" // every registered scheduler
)

//go:embed workloads.json
var workloadsJSON []byte

// benchConfig is workloads.json. The file also records the default seed
// and claim_seed, a seed held back from tuning: a performance claim must
// hold there too.
type benchConfig struct {
	Full  sizesConfig `json:"full"`
	Smoke sizesConfig `json:"smoke"`
}

// sizesConfig is one complete parameter set: the measured sizes or the
// smoke-test sizes.
type sizesConfig struct {
	// A run sets its workload up SetupRepeats times, and more while the
	// set-ups so far took less than SetupSeconds of wall time, up to
	// maxSetups.
	SetupRepeats int         `json:"setup_repeats"`
	SetupSeconds float64     `json:"setup_seconds"`
	TraceShare   float64     `json:"trace_share"`
	Scale        scaleConfig `json:"scale"`
	Paper        paperConfig `json:"paper"`
	Serve        serveConfig `json:"serve"`
}

func loadConfig(smoke bool) (sizesConfig, error) {
	var bc benchConfig
	if err := json.Unmarshal(workloadsJSON, &bc); err != nil {
		return sizesConfig{}, fmt.Errorf("workloads.json: %w", err)
	}
	if smoke {
		return bc.Smoke, nil
	}
	return bc.Full, nil
}

// workload is one set up instance of a workload's end-to-end runner.
type workload interface {
	// run drives the workload for about budget (always at least the
	// digest prefix) and reports what it did; rec is nil when untraced.
	run(budget time.Duration, rec *recorder) (*outcome, error)
	close()
}

// outcome is what one end-to-end pass measured.
type outcome struct {
	attempted, failed int64
	// invariant is empty when every whole-run check held (for serve:
	// computes equal cold requests), else the violated check.
	invariant string
	// digest fingerprints the outputs of the fixed prefix of work every
	// pass runs, so equal seeds give equal digests, traced or not.
	digest uint64
	// workPerS and p50Ms fill the shared end-to-end slots.
	workPerS, p50Ms float64
	// named holds the workload's own end-to-end metrics.
	named []namedMetric
	// notes are extra human-readable result lines.
	notes []string
	// layer holds per-layer values the pass measured on the way (the
	// service counters of a serve pass).
	layer []namedMetric
}

type namedMetric struct {
	name, unit string
	value      float64
}

var workloadNames = []string{"scale", "paper", "serve"}

func newWorkload(name string, cfg sizesConfig, seed int64, workdir string) (workload, error) {
	switch name {
	case "scale":
		return newScale(cfg.Scale, seed)
	case "paper":
		return newPaper(cfg.Paper, seed)
	case "serve":
		return newServe(cfg.Serve, seed, workdir)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	workdir  string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: scale, paper or serve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every input is drawn from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes from workloads.json's smoke section")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for serve's disk tiers and the span file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds must be positive")
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	for _, n := range workloadNames {
		if n == o.workload {
			return o, nil
		}
	}
	return o, fmt.Errorf("--workload must be one of %v, got %q", workloadNames, o.workload)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	cfg, err := loadConfig(o.smoke)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d smoke %t\n", o.workload, o.seed, o.seconds, o.trace, o.smoke)
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 0 {
		return runEndToEnd(o, cfg, budget, stdout)
	}
	return runTraced(o, cfg, budget, stdout)
}

const maxSetups = 64

// setUp builds the workload at least reps times and until the set-ups
// have taken minSeconds, timing each, and returns the last instance with
// the median set-up time, in CPU time like every timed section (see
// watch), and the median in wall time. Repeating smooths setup_s.
func setUp(o options, cfg sizesConfig, reps int, minSeconds float64) (w workload, cpuS, wallS float64, err error) {
	var cpu, wall []float64
	total := 0.0
	for i := 0; i < max(reps, 1) || (total < minSeconds && i < maxSetups); i++ {
		if w != nil {
			w.close()
		}
		t, start := startWatch(), time.Now()
		if w, err = newWorkload(o.workload, cfg, o.seed, o.workdir); err != nil {
			return nil, 0, 0, fmt.Errorf("set up %s: %w", o.workload, err)
		}
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, t.elapsed().Seconds())
		total += wall[i]
	}
	return w, median(cpu), median(wall), nil
}

func runEndToEnd(o options, cfg sizesConfig, budget time.Duration, stdout io.Writer) error {
	w, setupS, setupWallS, err := setUp(o, cfg, cfg.SetupRepeats, cfg.SetupSeconds)
	if err != nil {
		return err
	}
	out, err := w.run(budget, nil)
	w.close()
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	fmt.Fprintf(stdout, "digest %s %016x\n", o.workload, out.digest)
	failedFrac := float64(out.failed) / float64(max(out.attempted, 1))
	lines := append([]namedMetric{
		{"setup_s", "s", setupS},
		{"failed_frac", "ratio", failedFrac},
		{"peak_rss_mb", "MB", rss},
	}, out.named...)
	for _, m := range lines {
		fmt.Fprintf(stdout, "e2e %s %v %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "setup wall_s %v\n", setupWallS)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	return printResult(stdout, out, map[string]metricValue{
		"setup_s":     {setupS, "s"},
		"peak_rss_mb": {rss, "MB"},
		"work_per_s":  {out.workPerS, "1/s"},
		"p50_ms":      {out.p50Ms, "ms"},
	})
}

// runTraced runs the end-to-end runner plain and traced on fresh set-ups
// of equal budget, checks that tracing changed no output, then measures
// every layer on its own.
func runTraced(o options, cfg sizesConfig, budget time.Duration, stdout io.Writer) error {
	passBudget := time.Duration(float64(budget) * cfg.TraceShare)
	var outs [2]*outcome
	rec := newRecorder()
	for i, r := range []*recorder{nil, rec} {
		w, _, _, err := setUp(o, cfg, 1, 0)
		if err != nil {
			return err
		}
		outs[i], err = w.run(passBudget, r)
		w.close()
		if err != nil {
			return err
		}
	}
	plain, traced := outs[0], outs[1]
	fmt.Fprintf(stdout, "digest %s %016x\n", o.workload, plain.digest)
	fmt.Fprintf(stdout, "digest-traced %s %016x\n", o.workload, traced.digest)
	if plain.digest != traced.digest {
		traced.invariant = joinInvariant(traced.invariant, "traced digest differs from untraced digest")
	}
	for i, m := range traced.named {
		u := plain.named[i]
		fmt.Fprintf(stdout, "trace-overhead %s untraced %v traced %v delta %v %s\n", m.name, u.value, m.value, m.value-u.value, m.unit)
	}
	rec.summarize(stdout)
	spanFile := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := rec.writeFile(spanFile); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spans written to %s\n", spanFile)

	layers, err := measureLayers(cfg, o.seed, o.workdir)
	if err != nil {
		return err
	}
	overhead := 100 * (traced.p50Ms - plain.p50Ms) / plain.p50Ms
	layers.add("trace.overhead_pct", "%", overhead)
	layers.add("trace.spans", "count", float64(len(rec.spans)))
	for _, m := range layers.list {
		fmt.Fprintf(stdout, "layer %s %v %s\n", m.name, m.value, m.unit)
	}
	merged := &outcome{
		attempted: plain.attempted + traced.attempted + layers.attempted,
		failed:    plain.failed + traced.failed + layers.failed,
		invariant: joinInvariant(joinInvariant(plain.invariant, traced.invariant), layers.invariant),
	}
	metrics := map[string]metricValue{}
	for _, m := range layers.list {
		metrics[m.name] = metricValue{m.value, m.unit}
	}
	return printResult(stdout, merged, metrics)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(stdout io.Writer, out *outcome, metrics map[string]metricValue) error {
	if out.invariant != "" {
		fmt.Fprintf(stdout, "invariant violated: %s\n", out.invariant)
	}
	res := result{
		Correct:   out.failed == 0 && out.invariant == "",
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func joinInvariant(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "; " + b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
