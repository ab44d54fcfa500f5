package expt

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"caft/internal/gen"
	"caft/internal/online"
	"caft/internal/sched"
	"caft/internal/timeline"
)

// The jitter experiment probes execution-time predictability, in the
// sense of Cucu-Grosjean & Goossens: a system is predictable when
// shrinking execution times can never delay any completion. It
// separates two levels, for every scheduler in the registry:
//
//   - replay level: the committed schedule — placements, reservation
//     orders, communications — is frozen, and the online engine replays
//     it with per-task duration factors (online.Options.ExecScale).
//     This level is predictable by construction: every start time is a
//     monotone function of the durations, so shrink factors in [lo, 1]
//     can only move the makespan down and stretch factors in [1, hi]
//     can only move it up. The table documents the zero counts.
//
//   - dispatch level: the scheduler is *re-run* on the shrunk execution
//     estimates. List schedulers are not monotone in their input — a
//     uniformly faster estimate matrix can steer the priority order and
//     the placement probes to a schedule whose makespan is *worse* than
//     the nominal one (Graham's timing anomaly, at the point where this
//     codebase actually makes decisions). The anomaly count is expected
//     to be non-zero; TestJitterDispatchAnomalyExists pins one case.

const (
	// jitterTrials is the number of (shrink, stretch, dispatch) probe
	// triples per graph.
	jitterTrials = 4
	// Shrink factors are drawn per task from U[jitterShrinkLo, 1];
	// stretch factors from U[1, jitterStretchHi].
	jitterShrinkLo  = 0.5
	jitterStretchHi = 1.5
)

// JitterRow is the aggregated verdict for one registered scheduler.
type JitterRow struct {
	Alg string
	Eps int
	// ShrinkViol counts shrink replays finishing later than nominal;
	// StretchViol counts stretch replays finishing earlier. Both are
	// zero for every scheduler — the replay level is predictable by
	// construction — and the property tests keep them zero.
	ShrinkViol, StretchViol int
	// DispatchAnom counts re-dispatches on shrunk estimates whose
	// scheduled makespan exceeds the nominal one.
	DispatchAnom int
	// Trials is the number of probes behind each count.
	Trials int
}

// Verdict classifies the replay level: "predictable" when no shrink or
// stretch replay violated monotonicity.
func (r JitterRow) Verdict() string {
	if r.ShrinkViol+r.StretchViol == 0 {
		return "predictable"
	}
	return "anomalous"
}

type jitterUnit struct {
	shrinkViol, stretchViol, dispatchAnom, trials int
}

// runJitterUnit generates one instance, schedules it with d, and runs
// jitterTrials probe triples. The unit seed is derived from the
// descriptor ID, so each scheduler's rows are identical whether the
// sweep runs filtered or in full.
func runJitterUnit(d sched.Descriptor, useed int64) (jitterUnit, error) {
	var out jitterUnit
	rng := rand.New(rand.NewSource(useed))
	cfg := Config{M: 10, Params: gen.DefaultParams, DelayLo: 0.5, DelayHi: 1.0, Model: sched.OnePort, Policy: timeline.Append}
	p := cfg.GenInstance(rng, 1.0)
	eps := 0
	if d.Caps.AcceptsEps {
		eps = 1
	}
	s, err := d.New(p, eps, rng)
	if err != nil {
		return out, err
	}
	nominalSched := s.ScheduledLatency()
	eng, err := online.NewEngine(s)
	if err != nil {
		return out, err
	}
	nominal, _, err := eng.Makespan(nil, online.Options{})
	if err != nil {
		return out, err
	}

	n := p.G.NumTasks()
	scale := make([]float64, n)
	for trial := 0; trial < jitterTrials; trial++ {
		// Shrink replay: frozen schedule, faster tasks. Monotonicity says
		// the makespan may only move down.
		for t := range scale {
			scale[t] = jitterShrinkLo + rng.Float64()*(1-jitterShrinkLo)
		}
		lat, _, err := eng.Makespan(nil, online.Options{ExecScale: scale})
		if err != nil {
			return out, err
		}
		if lat > nominal+sched.Eps {
			out.shrinkViol++
		}

		// Dispatch probe on the same shrink draw: re-run the scheduler on
		// the shrunk estimate matrix (fresh derived rng, so only the input
		// changes the comparison, not shared-stream drift).
		exec2 := make([][]float64, n)
		for t := range exec2 {
			row := make([]float64, len(p.Exec[t]))
			for q := range row {
				row[q] = p.Exec[t][q] * scale[t]
			}
			exec2[t] = row
		}
		p2 := *p
		p2.Exec = exec2
		s2, err := d.New(&p2, eps, rand.New(rand.NewSource(unitSeed(useed, 1, trial))))
		if err != nil {
			return out, err
		}
		if s2.ScheduledLatency() > nominalSched+sched.Eps {
			out.dispatchAnom++
		}

		// Stretch replay: slower tasks may only move the makespan up.
		for t := range scale {
			scale[t] = 1 + rng.Float64()*(jitterStretchHi-1)
		}
		lat, _, err = eng.Makespan(nil, online.Options{ExecScale: scale})
		if err != nil {
			return out, err
		}
		if lat < nominal-sched.Eps {
			out.stretchViol++
		}
		out.trials++
	}
	return out, nil
}

// RunJitter sweeps every registered scheduler (or just `only`, when
// non-empty) through the predictability probes on the deterministic
// work-unit pool and writes one TSV row per scheduler. Unit seeds are
// keyed by registry ID, so a scheduler's row does not depend on which
// other schedulers are registered or selected; output is byte-identical
// for any worker count.
func RunJitter(w io.Writer, graphs int, seed int64, workers int, only string) ([]JitterRow, error) {
	if graphs < 0 {
		return nil, fmt.Errorf("expt: negative graph count %d", graphs)
	}
	var descs []sched.Descriptor
	for _, d := range sched.Registered() {
		if only != "" && d.Name != only {
			continue
		}
		descs = append(descs, d)
	}
	if len(descs) == 0 {
		return nil, fmt.Errorf("expt: no registered scheduler named %q (want %s)", only, strings.Join(sched.Names(), ", "))
	}

	units, err := runUnits(workers, len(descs)*graphs, func(u int) (jitterUnit, error) {
		ci, gi := u/graphs, u%graphs
		return runJitterUnit(descs[ci], unitSeed(seed, int(descs[ci].ID), gi))
	})
	if err != nil {
		return nil, err
	}

	rows := make([]JitterRow, len(descs))
	for ci, d := range descs {
		row := JitterRow{Alg: d.Name}
		if d.Caps.AcceptsEps {
			row.Eps = 1
		}
		for _, u := range units[ci*graphs : (ci+1)*graphs] {
			row.ShrinkViol += u.shrinkViol
			row.StretchViol += u.stretchViol
			row.DispatchAnom += u.dispatchAnom
			row.Trials += u.trials
		}
		rows[ci] = row
	}

	fmt.Fprintf(w, "# jitter predictability: m=10 g=1.0 graphs/alg=%d trials/graph=%d shrink U[%g,1] stretch U[1,%g] seed=%d\n",
		graphs, jitterTrials, jitterShrinkLo, jitterStretchHi, seed)
	fmt.Fprintln(w, "# shrink/stretch-viol: replays of the frozen schedule with jittered durations that broke monotonicity (predictable = 0)")
	fmt.Fprintln(w, "# dispatch-anom: re-running the scheduler on shrunk estimates produced a worse schedule than nominal (Graham anomaly; expected > 0)")
	fmt.Fprintln(w, "alg\teps\ttrials\tshrink-viol\tstretch-viol\tdispatch-anom\tverdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%s\n",
			r.Alg, r.Eps, r.Trials, r.ShrinkViol, r.StretchViol, r.DispatchAnom, r.Verdict())
	}
	return rows, nil
}
