package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/timeline"
)

// scaleConfig sizes the scale workload: caftsim's scale tail (bounded
// probing, no FTBAR) at one large v.
type scaleConfig struct {
	V           int      `json:"v"`
	M           int      `json:"m"`
	Eps         int      `json:"eps"`
	Granularity float64  `json:"granularity"`
	ProbeWidth  int      `json:"probe_width"`
	Algs        []string `json:"algs"`
	Policies    []string `json:"policies"`
	// Graphs is the pool every run cycles through; RoundSeconds, the
	// nominal wall time of one round, turns the budget into a fixed
	// number of rounds (see fixedRounds).
	Graphs       int     `json:"graphs"`
	RoundSeconds float64 `json:"round_seconds"`
	DigestRounds int     `json:"digest_rounds"`
}

func parsePolicy(name string) (timeline.Policy, error) {
	switch name {
	case "append":
		return timeline.Append, nil
	case "insertion":
		return timeline.Insertion, nil
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// lookupAlg returns the registry entry and the eps it is called with:
// fault-free references take 0.
func lookupAlg(name string, eps int) (sched.Descriptor, int, error) {
	d, ok := sched.Lookup(name)
	if !ok {
		return d, 0, fmt.Errorf("scheduler %q is not registered", name)
	}
	if !d.Caps.AcceptsEps {
		eps = 0
	}
	return d, eps, nil
}

// genInstance draws one random layered graph of exactly v tasks (or of
// [minTasks, maxTasks] when they differ), its platform and its execution
// matrix, in caftsim's stream order.
func genInstance(rng *rand.Rand, minTasks, maxTasks, m int, gran float64) (*dag.DAG, *platform.Platform, platform.ExecMatrix) {
	params := gen.DefaultParams
	params.MinTasks, params.MaxTasks = minTasks, maxTasks
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, gran, platform.DefaultHeterogeneity)
	return g, plat, exec
}

type scaleWork struct {
	cfg      scaleConfig
	seed     int64
	algs     []sched.Descriptor
	algEps   []int
	policies []timeline.Policy
	// pool[i][p] is graph i under policy p; both share G, Plat and Exec.
	pool [][]*sched.Problem
}

func newScale(cfg scaleConfig, seed int64) (*scaleWork, error) {
	w := &scaleWork{cfg: cfg, seed: seed}
	for _, name := range cfg.Algs {
		d, eps, err := lookupAlg(name, cfg.Eps)
		if err != nil {
			return nil, err
		}
		w.algs, w.algEps = append(w.algs, d), append(w.algEps, eps)
	}
	for _, name := range cfg.Policies {
		pol, err := parsePolicy(name)
		if err != nil {
			return nil, err
		}
		if !allSupport(w.algs, pol) {
			return nil, fmt.Errorf("policy %s not supported by every scale scheduler", name)
		}
		w.policies = append(w.policies, pol)
	}
	for i := 0; i < cfg.Graphs; i++ {
		rng := rand.New(rand.NewSource(subSeed(seed, 1, i)))
		g, plat, exec := genInstance(rng, cfg.V, cfg.V, cfg.M, cfg.Granularity)
		// Compile once here, so no timed scheduler call pays for the
		// graph's first compiled view.
		if _, err := g.Compile(); err != nil {
			return nil, err
		}
		row := make([]*sched.Problem, len(w.policies))
		for p, pol := range w.policies {
			row[p] = &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol, ProbeWidth: cfg.ProbeWidth}
		}
		w.pool = append(w.pool, row)
	}
	return w, nil
}

func allSupport(ds []sched.Descriptor, pol timeline.Policy) bool {
	for _, d := range ds {
		if !d.Caps.Supports(pol) {
			return false
		}
	}
	return true
}

func (w *scaleWork) close() {}

// run schedules the pool's graphs round by round, every algorithm under
// every policy, and times only the registry calls, in CPU time (see
// watch). A graph's repeats use
// the same random stream as its first build, so each repeat must
// reproduce that build exactly: the first build is validated and
// crash-replayed between timed calls, a repeat is compared with it. The
// rates use each call's median time over its repeats.
func (w *scaleWork) run(budget time.Duration, rec *recorder) (*outcome, error) {
	out := &outcome{}
	rounds := fixedRounds(budget, w.cfg.RoundSeconds, w.cfg.DigestRounds, len(w.pool))
	calls := len(w.policies) * len(w.algs)
	// Call k = (graph*len(policies)+policy)*len(algs)+alg.
	times := make([][]float64, len(w.pool)*calls)
	firstFP := make([]uint64, len(times))
	var roundMs []float64
	dg := newDigester()
	val := sched.NewValidator()
	for r := 0; r < rounds; r++ {
		gi := r % len(w.pool)
		row := w.pool[gi]
		root := rec.begin("scale.round", -1, int64(r))
		var roundTime time.Duration
		for pi, p := range row {
			for ai, d := range w.algs {
				name := "sched." + d.Name + "." + p.Policy.String()
				k := (gi*len(row)+pi)*len(w.algs) + ai
				rng := rand.New(rand.NewSource(subSeed(w.seed, 2, k)))
				sp := rec.beginAllocs(name, root, int64(r))
				t := startWatch()
				s, err := d.New(p, w.algEps[ai], rng)
				el := t.elapsed()
				sp.end()
				out.attempted++
				times[k] = append(times[k], el.Seconds())
				roundTime += el
				if err != nil {
					out.failed++
					fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", name, r, err)
					continue
				}
				rec.count(sp.id, "replicas", int64(s.ReplicaCount()))
				rec.count(sp.id, "messages", int64(s.MessageCount()))
				fp := scheduleFingerprint(s)
				var lats []float64
				problem := ""
				if r < len(w.pool) {
					firstFP[k] = fp
					lats, problem = checkSchedule(val, s, w.algEps[ai], rec, root, int64(r))
				} else if fp != firstFP[k] {
					problem = "schedule differs from the first build of the same graph and random stream"
				}
				if problem != "" {
					out.failed++
					fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %s\n", name, r, problem)
				}
				if r < w.cfg.DigestRounds {
					digestSchedule(dg, s)
					for _, l := range lats {
						dg.float(l)
					}
				}
			}
		}
		rec.end(root)
		roundMs = append(roundMs, float64(roundTime)/1e6)
	}
	var tasks, busy float64
	for pi, pol := range w.policies {
		var polTasks, polBusy float64
		for gi, row := range w.pool {
			for ai := range w.algs {
				polTasks += float64(row[pi].G.NumTasks())
				polBusy += median(times[(gi*len(row)+pi)*len(w.algs)+ai])
			}
		}
		out.named = append(out.named, namedMetric{"scale." + pol.String() + "_tasks_per_s", "1/s", polTasks / polBusy})
		tasks += polTasks
		busy += polBusy
	}
	out.workPerS = tasks / busy
	out.p50Ms = median(roundMs)
	out.digest = dg.sum()
	out.notes = append(out.notes, fmt.Sprintf("scale rounds %d graphs %d", rounds, len(w.pool)))
	return out, nil
}

// checkSchedule validates s and, for a schedule built to tolerate eps >= 1
// failures, replays every single-processor crash. It returns the crash
// latencies (+Inf for a lost task) and a description of the first
// violation, or "".
func checkSchedule(val *sched.Validator, s *sched.Schedule, eps int, rec *recorder, parent int, req int64) ([]float64, string) {
	sp := rec.begin("check.validate", parent, req)
	err := val.Validate(s)
	rec.end(sp)
	if err != nil {
		return nil, "validator rejected the schedule: " + err.Error()
	}
	if eps < 1 {
		return nil, ""
	}
	sp = rec.begin("check.crash_replay", parent, req)
	defer rec.end(sp)
	rep, err := sim.NewReplayer(s)
	if err != nil {
		return nil, "replayer: " + err.Error()
	}
	m := s.P.Plat.M
	lats := make([]float64, m)
	crashed := map[int]bool{}
	problem := ""
	for q := 0; q < m; q++ {
		clear(crashed)
		crashed[q] = true
		lat, err := rep.CrashLatency(crashed)
		switch {
		case errors.Is(err, sim.ErrTaskLost):
			lats[q] = math.Inf(1)
			if problem == "" {
				problem = fmt.Sprintf("task lost when processor %d crashes", q)
			}
		case err != nil:
			lats[q] = math.NaN()
			if problem == "" {
				problem = "crash replay: " + err.Error()
			}
		default:
			lats[q] = lat
		}
	}
	return lats, problem
}

// digestSchedule folds a schedule's latency and structure into dg.
func digestSchedule(dg *digester, s *sched.Schedule) {
	dg.float(s.ScheduledLatency())
	dg.float(s.MakespanAll())
	dg.int(int64(s.ReplicaCount()))
	dg.int(int64(s.MessageCount()))
}

// scheduleFingerprint folds every replica and communication record of s,
// so two builds compare equal only when they placed everything alike.
func scheduleFingerprint(s *sched.Schedule) uint64 {
	dg := newDigester()
	for _, reps := range s.Reps {
		dg.int(int64(len(reps)))
		for _, r := range reps {
			dg.int(int64(r.Task)<<32 | int64(r.Copy)<<16 | int64(r.Proc))
			dg.float(r.Start)
			dg.float(r.Finish)
			dg.int(int64(r.Seq))
		}
	}
	for _, c := range s.Comms {
		dg.int(int64(c.From)<<32 | int64(c.To))
		dg.int(int64(c.SrcCopy)<<48 | int64(c.DstCopy)<<32 | int64(c.SrcProc)<<16 | int64(c.DstProc))
		dg.float(c.Start)
		dg.float(c.Finish)
		dg.int(int64(c.Seq))
	}
	return dg.sum()
}
