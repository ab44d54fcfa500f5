package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"caft/internal/expt"
	"caft/internal/failure"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/timeline"
)

// paperConfig sizes the paper workload: the paper's own regime.
type paperConfig struct {
	MinTasks      int     `json:"min_tasks"`
	MaxTasks      int     `json:"max_tasks"`
	M             int     `json:"m"`
	Eps           int     `json:"eps"`
	Granularity   float64 `json:"granularity"`
	Graphs        int     `json:"graphs"`
	TimedSamples  int     `json:"timed_samples"`
	OnlineSamples int     `json:"online_samples"`
	// MTBFMult sets each processor's mean time between failures to
	// U[0.75, 1.25] x MTBFMult x the graph's fault-free HEFT latency, as
	// in the reliability study.
	MTBFMult float64 `json:"mtbf_mult"`
	// RoundSeconds is the nominal wall time of one round (one graph):
	// it turns the budget into a fixed round count (see fixedRounds).
	RoundSeconds float64 `json:"round_seconds"`
	DigestRounds int     `json:"digest_rounds"`
}

type paperWork struct {
	cfg    paperConfig
	seed   int64
	algs   []sched.Descriptor
	algEps []int
	heft   int // index of heft in algs: its latency sets the MTBF
	pool   []*sched.Problem
}

func newPaper(cfg paperConfig, seed int64) (*paperWork, error) {
	w := &paperWork{cfg: cfg, seed: seed, heft: -1}
	for i, name := range sched.Names() {
		d, eps, err := lookupAlg(name, cfg.Eps)
		if err != nil {
			return nil, err
		}
		if name == "heft" {
			w.heft = i
		}
		w.algs, w.algEps = append(w.algs, d), append(w.algEps, eps)
	}
	if w.heft < 0 {
		return nil, errors.New("heft is not registered")
	}
	for i := 0; i < cfg.Graphs; i++ {
		rng := rand.New(rand.NewSource(subSeed(seed, 1, i)))
		g, plat, exec := genInstance(rng, cfg.MinTasks, cfg.MaxTasks, cfg.M, cfg.Granularity)
		if _, err := g.Compile(); err != nil {
			return nil, err
		}
		w.pool = append(w.pool, &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append})
	}
	return w, nil
}

func (w *paperWork) close() {}

// paperTally accumulates the timed operations of one kind.
type paperTally struct {
	ops  int64
	busy time.Duration
}

func (t *paperTally) add(ops int, el time.Duration) {
	t.ops += int64(ops)
	t.busy += el
}

func (t paperTally) rate() float64 { return float64(t.ops) / t.busy.Seconds() }

// run builds every graph of the pool with every registered scheduler, then
// replays each schedule statically under every single-processor crash,
// under sampled timed crashes (expt.EstimateReliability) and through the
// online engine with re-mapping (expt.EstimateOnline). Each call is timed
// in CPU time (see watch).
func (w *paperWork) run(budget time.Duration, rec *recorder) (*outcome, error) {
	out := &outcome{}
	var builds, static, timed, onl paperTally
	var roundMs []float64
	dg := newDigester()
	val := sched.NewValidator()
	m := w.cfg.M
	crashed := map[int]bool{}
	lats, errs := make([]float64, m), make([]error, m)
	scheds := make([]*sched.Schedule, len(w.algs))
	rounds := fixedRounds(budget, w.cfg.RoundSeconds, w.cfg.DigestRounds, 1)
	fail := func(r int, n int, what string) {
		out.failed += int64(n)
		fmt.Fprintf(os.Stderr, "perfbench: paper round %d: %s\n", r, what)
	}
	for r := 0; r < rounds; r++ {
		p := w.pool[r%len(w.pool)]
		root := rec.begin("paper.round", -1, int64(r))
		var roundTime time.Duration
		for ai, d := range w.algs {
			rng := rand.New(rand.NewSource(subSeed(w.seed, 2, r*len(w.algs)+ai)))
			sp := rec.beginAllocs("sched."+d.Name, root, int64(r))
			t := startWatch()
			s, err := d.New(p, w.algEps[ai], rng)
			el := t.elapsed()
			sp.end()
			builds.add(1, el)
			roundTime += el
			out.attempted++
			scheds[ai] = nil
			if err != nil {
				fail(r, 1, d.Name+": "+err.Error())
				continue
			}
			rec.count(sp.id, "replicas", int64(s.ReplicaCount()))
			rec.count(sp.id, "messages", int64(s.MessageCount()))
			if err := val.Validate(s); err != nil {
				fail(r, 1, d.Name+": validator rejected the schedule: "+err.Error())
				continue
			}
			scheds[ai] = s
		}
		if scheds[w.heft] == nil {
			rec.end(root)
			continue
		}
		mtbfBase := w.cfg.MTBFMult * scheds[w.heft].ScheduledLatency()
		mtbfRng := rand.New(rand.NewSource(subSeed(w.seed, 3, r)))
		model := &failure.Exponential{MTBF: failure.UniformMTBF(mtbfRng, m, 0.75*mtbfBase, 1.25*mtbfBase)}
		for ai, s := range scheds {
			if s == nil {
				continue
			}
			name := w.algs[ai].Name
			digest := r < w.cfg.DigestRounds
			if digest {
				digestSchedule(dg, s)
			}

			sp := rec.begin("sim.static", root, int64(r))
			t := startWatch()
			rep, err := sim.NewReplayer(s)
			if err != nil {
				rec.end(sp)
				out.attempted += int64(m)
				fail(r, m, name+": replayer: "+err.Error())
				continue
			}
			for q := 0; q < m; q++ {
				clear(crashed)
				crashed[q] = true
				lats[q], errs[q] = rep.CrashLatency(crashed)
			}
			el := t.elapsed()
			rec.end(sp)
			static.add(m, el)
			roundTime += el
			out.attempted += int64(m)
			for q := 0; q < m; q++ {
				switch {
				case errors.Is(errs[q], sim.ErrTaskLost):
					lats[q] = math.Inf(1)
					if w.algEps[ai] > 0 {
						fail(r, 1, fmt.Sprintf("%s: task lost when processor %d crashes", name, q))
					}
				case errs[q] != nil:
					fail(r, 1, name+": crash replay: "+errs[q].Error())
				}
				if digest {
					dg.float(lats[q])
				}
			}

			sp = rec.begin("expt.estimate_reliability", root, int64(r))
			t = startWatch()
			tally, err := expt.EstimateReliability(s, model, w.cfg.TimedSamples, subSeed(w.seed, 4, r*len(w.algs)+ai), 1)
			el = t.elapsed()
			rec.count(sp, "lost", int64(tally.Lost))
			rec.end(sp)
			timed.add(w.cfg.TimedSamples, el)
			roundTime += el
			out.attempted += int64(w.cfg.TimedSamples)
			if err != nil {
				fail(r, w.cfg.TimedSamples, name+": reliability estimate: "+err.Error())
			} else if tally.ReplayErrors > 0 {
				fail(r, tally.ReplayErrors, fmt.Sprintf("%s: %d timed replays failed", name, tally.ReplayErrors))
			}
			if digest {
				dg.int(int64(tally.Survived))
				dg.int(int64(tally.Lost))
				dg.float(tally.LatSum)
			}

			sp = rec.begin("expt.estimate_online", root, int64(r))
			t = startWatch()
			otally, err := expt.EstimateOnline(s, model, w.cfg.OnlineSamples, subSeed(w.seed, 5, r*len(w.algs)+ai), 1, true)
			el = t.elapsed()
			rec.count(sp, "lost", int64(otally.Lost))
			rec.count(sp, "replacements", int64(otally.Rescheduled))
			rec.end(sp)
			onl.add(w.cfg.OnlineSamples, el)
			roundTime += el
			out.attempted += int64(w.cfg.OnlineSamples)
			if err != nil {
				fail(r, w.cfg.OnlineSamples, name+": online replay: "+err.Error())
			} else if otally.ReplayErrors > 0 {
				fail(r, otally.ReplayErrors, fmt.Sprintf("%s: %d online replays failed", name, otally.ReplayErrors))
			}
			if digest {
				dg.int(int64(len(otally.Makespans)))
				dg.int(int64(otally.Lost))
				dg.int(int64(otally.Rescheduled))
				for _, v := range otally.Makespans {
					dg.float(v)
				}
			}
		}
		rec.end(root)
		roundMs = append(roundMs, float64(roundTime)/1e6)
	}
	out.named = []namedMetric{
		{"paper.schedules_per_s", "1/s", builds.rate()},
		{"paper.static_replays_per_s", "1/s", static.rate()},
		{"paper.timed_replays_per_s", "1/s", timed.rate()},
		{"paper.online_replays_per_s", "1/s", onl.rate()},
	}
	total := paperTally{
		ops:  builds.ops + static.ops + timed.ops + onl.ops,
		busy: builds.busy + static.busy + timed.busy + onl.busy,
	}
	out.workPerS = total.rate()
	out.p50Ms = median(roundMs)
	out.digest = dg.sum()
	out.notes = append(out.notes, fmt.Sprintf("paper rounds %d graphs %d", rounds, len(w.pool)))
	return out, nil
}
