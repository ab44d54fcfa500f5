package expt

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/timeline"
)

// ScaleSizes is the default task-count sweep of the scale study: the
// paper's v in [80,120] regime extended by successive doublings into
// the territory where the survey literature evaluates heuristics. The
// clone-free speculative probe path made 3200 affordable; the tail up
// to 100000 — reached with -vmax — additionally rides the compiled DAG
// view and bounded candidate probing (see scaleFullMax below). Sizes
// are append-only: per-cell seeds derive from the cell index, so
// extending the tail never moves an existing point.
var ScaleSizes = []int{100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200, 100000}

const (
	// scaleFullMax is the largest size scheduled with unbounded probing
	// and the full algorithm roster. Beyond it the sweep probes only the
	// scaleProbeWidth best processors per task (Problem.ProbeWidth over
	// the OFT lower bound) and drops FTBAR, whose free-list×processor
	// pressure scan is quadratic in v and dominates everything else by
	// orders of magnitude at 10^4+ tasks. All pre-existing sizes are at
	// or below this threshold, so their rows are byte-identical to the
	// historical unbounded sweep.
	scaleFullMax = 3200
	// scaleProbeWidth is the bounded candidate-set width used above
	// scaleFullMax.
	scaleProbeWidth = 4
)

// scaleMeas is one scheduler's measurement on one instance. allocs is
// the process-wide heap-allocation (Mallocs) delta across the schedule
// construction — exact with -workers 1, approximate when concurrent
// units allocate at the same time.
type scaleMeas struct {
	lat, reps, msgs float64
	ns              int64
	allocs          uint64
	skipped         bool
}

// scaleUnit is the complete measurement of one (size, policy, graph)
// work unit, in scaleAlgos order.
type scaleUnit [len(scaleAlgos)]scaleMeas

// scaleAlgos maps the table's row labels to registry names. CAFT runs
// its greedy variant (Algorithm 5.1) so the wall-clock numbers trace a
// single schedule construction.
// HOFT is last: it joined after the others, and scheduling order is the
// shared-rng draw order, so appending keeps the earlier rows identical.
var scaleAlgos = [...]struct{ label, name string }{
	{"HEFT", "heft"},
	{"CAFT", "caft-greedy"},
	{"FTSA", "ftsa"},
	{"FTBAR", "ftbar"},
	{"HOFT", "hoft"},
}

// RunScale runs the large-DAG scale study: random layered graphs of v
// tasks for every v in sizes are scheduled by HEFT, CAFT (greedy
// Algorithm 5.1, so the wall-clock numbers trace a single schedule
// construction), FTSA, FTBAR and HOFT, under both reservation policies, on
// m=10 processors with eps=1 and granularity 1.0. One TSV row per
// (v, policy, algorithm) with the mean normalized latency, replica
// count and inter-processor message count goes to w; everything
// written to w is a pure function of (sizes, graphs, seed), identical
// for any worker count. Mean wall-clock scheduling times and heap
// allocations per graph — which are machine- and load-dependent, and
// noisier when workers > 1 because units time (and count) each other's
// pressure — go to timing as comment lines.
//
// Sizes above scaleFullMax run with bounded candidate probing
// (ProbeWidth = scaleProbeWidth) and without FTBAR; see scaleFullMax.
func RunScale(w, timing io.Writer, sizes []int, graphs int, seed int64, workers int) error {
	const (
		m    = 10
		eps  = 1
		gran = 1.0
	)
	if graphs < 0 {
		return fmt.Errorf("expt: negative graph count %d", graphs)
	}
	if len(sizes) == 0 {
		return fmt.Errorf("expt: empty size sweep")
	}
	fmt.Fprintf(w, "# scale study: m=%d eps=%d g=%.1f graphs/point=%d seed=%d\n", m, eps, gran, graphs, seed)
	fmt.Fprintln(w, "v\tpolicy\talgo\tlatency\treplicas\tmessages")
	policies := []timeline.Policy{timeline.Append, timeline.Insertion}
	cells := len(sizes) * len(policies)
	units, err := runUnits(workers, cells*graphs, func(u int) (scaleUnit, error) {
		cell, gi := u/graphs, u%graphs
		v, pol := sizes[cell/len(policies)], policies[cell%len(policies)]
		rng := rand.New(rand.NewSource(unitSeed(seed, cell, gi)))
		params := gen.DefaultParams
		params.MinTasks, params.MaxTasks = v, v
		graph := gen.RandomLayered(rng, params)
		plat := platform.NewRandom(rng, m, 0.5, 1.0)
		exec := platform.GenExecForGranularity(rng, graph, plat, gran, platform.DefaultHeterogeneity)
		p := &sched.Problem{G: graph, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol}
		if v > scaleFullMax {
			p.ProbeWidth = scaleProbeWidth
		}
		var out scaleUnit
		var ms0, ms1 runtime.MemStats
		for a, alg := range scaleAlgos {
			if v > scaleFullMax && alg.name == "ftbar" {
				out[a].skipped = true
				continue
			}
			d := algo(alg.name)
			algEps := eps
			if !d.Caps.AcceptsEps {
				algEps = 0
			}
			runtime.ReadMemStats(&ms0)
			start := time.Now() //caft:nondet-ok wall-clock timing reported as stats only
			s, err := d.New(p, algEps, rng)
			if err != nil {
				return out, fmt.Errorf("scale v=%d %s %s: %w", v, pol, alg.label, err)
			}
			ns := time.Since(start).Nanoseconds() //caft:nondet-ok wall-clock timing reported as stats only
			runtime.ReadMemStats(&ms1)
			out[a] = scaleMeas{
				lat:    s.ScheduledLatency() / DefaultNorm,
				reps:   float64(s.ReplicaCount()),
				msgs:   float64(s.MessageCount()),
				ns:     ns,
				allocs: ms1.Mallocs - ms0.Mallocs,
			}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	for cell := 0; cell < cells; cell++ {
		v, pol := sizes[cell/len(policies)], policies[cell%len(policies)]
		var lat, reps, msgs [len(scaleAlgos)]series
		var ns [len(scaleAlgos)]int64
		var allocs [len(scaleAlgos)]uint64
		skipped := make([]bool, len(scaleAlgos))
		for _, u := range units[cell*graphs : (cell+1)*graphs] {
			for a := range scaleAlgos {
				if u[a].skipped {
					skipped[a] = true
					continue
				}
				lat[a].add(u[a].lat)
				reps[a].add(u[a].reps)
				msgs[a].add(u[a].msgs)
				ns[a] += u[a].ns
				allocs[a] += u[a].allocs
			}
		}
		for a, alg := range scaleAlgos {
			if skipped[a] {
				continue
			}
			fmt.Fprintf(w, "%d\t%s\t%s\t%.2f\t%.0f\t%.0f\n",
				v, pol, alg.label, lat[a].mean(), reps[a].mean(), msgs[a].mean())
		}
		if graphs > 0 {
			fmt.Fprintf(timing, "# scale v=%d %s: sched time/graph", v, pol)
			for a, alg := range scaleAlgos {
				if skipped[a] {
					continue
				}
				fmt.Fprintf(timing, " %s %s", alg.label,
					time.Duration(ns[a]/int64(graphs)).Round(time.Microsecond))
			}
			fmt.Fprintln(timing)
			fmt.Fprintf(timing, "# scale v=%d %s: allocs/graph", v, pol)
			for a, alg := range scaleAlgos {
				if skipped[a] {
					continue
				}
				fmt.Fprintf(timing, " %s %d", alg.label, allocs[a]/uint64(graphs))
			}
			fmt.Fprintln(timing)
		}
	}
	return nil
}
