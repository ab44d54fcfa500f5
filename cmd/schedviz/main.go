// Command schedviz schedules a DAG (from a dagen JSON file or a built-in
// family) with a chosen algorithm and renders the resulting schedule as
// an ASCII Gantt chart, optionally replaying processor crashes.
//
// Usage:
//
//	dagen -kind montage -n 4 | schedviz -algo caft -eps 1 -m 6 -ports
//	schedviz -algo ftsa -eps 2 -m 8 -kind random -crash 0,3
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	_ "caft/internal/sched/all" // populate the scheduler registry
	"caft/internal/sim"
	"caft/internal/timeline"
	"caft/internal/viz"
)

func main() {
	var (
		algo  = flag.String("algo", "caft", "scheduler: "+strings.Join(sched.Names(), ", "))
		eps   = flag.Int("eps", 1, "number of tolerated failures (fault-free schedulers run with 0)")
		m     = flag.Int("m", 6, "number of processors")
		kind  = flag.String("kind", "", "generate a graph instead of reading JSON from stdin: random, montage, fork, diamond")
		gran  = flag.Float64("granularity", 1.0, "target granularity of the generated execution times")
		seed  = flag.Int64("seed", 1, "PRNG seed")
		width = flag.Int("width", 100, "chart width in cells")
		ports = flag.Bool("ports", false, "draw send/recv port lanes")
		crash = flag.String("crash", "", "comma-separated processors to crash in a replay")
		svg   = flag.String("svg", "", "also write an SVG Gantt chart to this file")
		trace = flag.String("trace", "", "write the replay event trace as CSV to this file")
	)
	flag.Parse()
	if err := run(os.Stdout, os.Stdin, *algo, *eps, *m, *kind, *gran, *seed, *width, *ports, *crash, *svg, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "schedviz:", err)
		os.Exit(1)
	}
}

// run builds and renders one schedule, writing the chart and replay
// summary to out; in is only consulted when no -kind is given. Flag
// values are validated up front, as in caftsim: the platform generator
// panics on a negative -m, the renderer silently draws its default width
// for a non-positive -width, and the execution-time generator leaves the
// matrix unscaled for a non-positive -granularity.
func run(out io.Writer, in io.Reader, algo string, eps, m int, kind string, gran float64, seed int64, width int, ports bool, crash, svgPath, tracePath string) error {
	if m < 1 {
		return fmt.Errorf("-m must be positive, got %d", m)
	}
	if width < 1 {
		return fmt.Errorf("-width must be positive, got %d", width)
	}
	if gran <= 0 || math.IsNaN(gran) || math.IsInf(gran, 1) {
		return fmt.Errorf("-granularity must be positive and finite, got %v", gran)
	}
	rng := rand.New(rand.NewSource(seed))
	var g *dag.DAG
	var err error
	switch kind {
	case "":
		if g, err = dag.Read(in); err != nil {
			return fmt.Errorf("reading DAG from stdin: %w", err)
		}
	case "random":
		params := gen.DefaultParams
		params.MinTasks, params.MaxTasks = 20, 30
		g = gen.RandomLayered(rng, params)
	case "montage":
		g = gen.Montage(4, 100)
	case "fork":
		g = gen.Fork(8, 100)
	case "diamond":
		g = gen.Diamond(3, 3, 100)
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, gran, platform.DefaultHeterogeneity)
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}

	d, ok := sched.Lookup(algo)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	if !d.Caps.AcceptsEps {
		eps = 0
	}
	s, err := d.New(p, eps, rng)
	if err != nil {
		return err
	}
	viz.Summary(out, s)
	fmt.Fprintln(out)
	if err := viz.Render(out, s, viz.Options{Width: width, Ports: ports}); err != nil {
		return err
	}
	if svgPath != "" {
		f, err := os.Create(svgPath)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("%s eps=%d on %d processors", algo, eps, m)
		if err := viz.RenderSVG(f, s, viz.SVGOptions{Ports: ports, Title: title}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if crash == "" && tracePath == "" {
		return nil
	}
	rep, err := sim.NewReplayer(s)
	if err != nil {
		return err
	}
	if crash == "" {
		return writeTrace(tracePath, rep.Replay(nil))
	}
	crashed := map[int]bool{}
	for _, part := range strings.Split(crash, ",") {
		proc, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || proc < 0 || proc >= m {
			return fmt.Errorf("bad crash processor %q", part)
		}
		crashed[proc] = true
	}
	lat0, err := rep.LowerBound()
	if err != nil {
		return err
	}
	latC, err := rep.CrashLatency(crashed)
	if err != nil {
		return fmt.Errorf("crash replay: %w", err)
	}
	ub, err := rep.UpperBound()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nreplay: latency %.2f with 0 crashes, %.2f with crashes %v (upper bound %.2f)\n", lat0, latC, keys(crashed), ub)
	if tracePath != "" {
		return writeTrace(tracePath, rep.Replay(crashed))
	}
	return nil
}

func writeTrace(path string, r *sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteTraceCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func keys(set map[int]bool) []int {
	var out []int
	for k := range set {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
