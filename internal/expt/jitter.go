package expt

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"caft/internal/sched"
	"caft/internal/sim"
)

// The jitter experiment probes execution-time predictability, in the
// sense of Cucu-Grosjean & Goossens: a system is predictable when
// shrinking execution times can never delay any completion. It
// separates two levels, for every scheduler in the registry:
//
//   - replay level: the committed schedule — placements, reservation
//     orders, communications — is frozen, and replayed with per-task
//     duration factors (scaledCopy). This level is predictable by
//     construction: every start time is a monotone function of the
//     durations, so shrink factors in [lo, 1] can only move the
//     makespan down and stretch factors in [1, hi] can only move it
//     up. The table documents the zero counts.
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
	p := randomProblem(rng, 10, 1)
	eps := 0
	if d.Caps.AcceptsEps {
		eps = 1
	}
	s, err := d.New(p, eps, rng)
	if err != nil {
		return out, err
	}
	nominalSched := s.ScheduledLatency()
	makespan := func(s *sched.Schedule) (float64, error) { // fault-free replay
		rep, err := sim.NewReplayer(s)
		if err != nil {
			return 0, err
		}
		return rep.LowerBound()
	}
	nominal, err := makespan(s)
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
		lat, err := makespan(scaledCopy(s, scale))
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
		lat, err = makespan(scaledCopy(s, scale))
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

// scaledCopy returns a copy of s with Finish = Start + (Finish-Start)·f[t]
// for every replica of task t, all else shared. The wiring takes a
// replica's duration as Finish - Start, so replaying the copy replays s
// with jittered execution times.
func scaledCopy(s *sched.Schedule, f []float64) *sched.Schedule {
	c := *s
	c.Reps = make([][]sched.Replica, len(s.Reps))
	for t, reps := range s.Reps {
		c.Reps[t] = append([]sched.Replica(nil), reps...)
		for i := range c.Reps[t] {
			r := &c.Reps[t][i]
			r.Finish = r.Start + (r.Finish-r.Start)*f[t]
		}
	}
	return &c
}

// RunJitter sweeps every registered scheduler (or just `only`, when
// non-empty) through the predictability probes on the deterministic
// work-unit pool and writes one TSV row per scheduler. Unit seeds are
// keyed by registry ID, so a scheduler's row does not depend on which
// other schedulers are registered or selected; output is byte-identical
// for any worker count.
func RunJitter(w io.Writer, graphs int, seed int64, workers int, only string) ([]JitterRow, error) {
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

	cells, err := runCells(workers, len(descs), graphs, func(ci, gi int) (jitterUnit, error) {
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
		for _, u := range cells[ci] {
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
