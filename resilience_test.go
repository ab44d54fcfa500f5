package caft

// The exhaustive resilience verifier: Proposition 5.2 claims a CAFT
// schedule tolerates any ε processor failures. The figure experiments
// only sample crash sets; here every C(m, ε) crash subset of small
// instances is enumerated and replayed, turning the proposition from a
// sampled claim into a checked invariant for CAFT (support locking),
// FTSA and FTBAR across the structured families the paper reasons
// about — forks, chains, diamonds — and random layered DAGs. The
// literal eq. (7) PaperLocking rule is covered as an expected-failure
// case: the verifier must find subsets that lose a task (the gap
// documented in EXPERIMENTS.md), or the ablation would be pointless.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftbar"
	"caft/internal/sched/ftsa"
	"caft/internal/sim"
	"caft/internal/timeline"
)

// forEachSubset enumerates every size-k subset of 0..m-1 in
// lexicographic order, reusing one scratch map across calls.
func forEachSubset(m, k int, visit func(crashed map[int]bool)) {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	crashed := make(map[int]bool, k)
	for {
		clear(crashed)
		for _, p := range idx {
			crashed[p] = true
		}
		visit(crashed)
		// Advance the combination.
		i := k - 1
		for i >= 0 && idx[i] == m-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func TestForEachSubsetCounts(t *testing.T) {
	for _, c := range []struct{ m, k, want int }{
		{6, 1, 6}, {6, 2, 15}, {5, 2, 10}, {4, 4, 1},
	} {
		n := 0
		seen := map[string]bool{}
		forEachSubset(c.m, c.k, func(crashed map[int]bool) {
			if len(crashed) != c.k {
				t.Fatalf("subset of size %d, want %d", len(crashed), c.k)
			}
			key := fmt.Sprint(crashed)
			if seen[key] {
				t.Fatalf("subset %v enumerated twice", crashed)
			}
			seen[key] = true
			n++
		})
		if n != c.want {
			t.Fatalf("C(%d,%d) enumerated %d subsets, want %d", c.m, c.k, n, c.want)
		}
	}
}

type verifierInstance struct {
	family string
	g      *dag.DAG
}

// verifierInstances builds the covered instance families, in a fixed
// order so the shared rng stream (and hence every verified platform
// and schedule) is identical run to run. Random instances are kept
// deep (several layers) because shallow graphs cannot exhibit the
// chain-sharing failure mode.
func verifierInstances(rng *rand.Rand) []verifierInstance {
	return []verifierInstance{
		{"fork", gen.Fork(8, 100)},
		{"chain", gen.Chain(9, 100)},
		{"diamond", gen.Diamond(3, 3, 100)},
		{"random", gen.RandomLayered(rng, gen.RandomParams{
			MinTasks: 14, MaxTasks: 20, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150,
		})},
	}
}

func verifierProblem(rng *rand.Rand, g *dag.DAG, m int) *sched.Problem {
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
}

// exhaustLosses replays every C(m, eps) crash subset against the
// schedule, statically and at timed instants, and returns how many
// subsets lost a task in any of their replays, failing the test on any
// engine error. The timed replays crash the subset at each instant of
// the list 0, then every fault-free replica finish ± sched.Eps: the
// i-th processor of the subset crashes at the (k·(i+1))-th instant in
// replay k, so the processors of a pair crash both together and apart.
func exhaustLosses(t *testing.T, s *sched.Schedule, m, eps int) int {
	t.Helper()
	rep, err := sim.NewReplayer(s)
	if err != nil {
		t.Fatal(err)
	}
	instants := []float64{0}
	for _, reps := range rep.Replay(nil).Reps {
		for _, o := range reps {
			instants = append(instants, o.Finish-sched.Eps, o.Finish+sched.Eps)
		}
	}
	losses := 0
	trace := map[int]float64{}
	forEachSubset(m, eps, func(crashed map[int]bool) {
		lost := false
		check := func(lat float64, err error, what any) {
			switch {
			case errors.Is(err, sim.ErrTaskLost) || math.IsInf(lat, 1):
				lost = true
			case err != nil:
				t.Fatalf("crash %v: engine error: %v", what, err)
			}
		}
		lat, err := rep.CrashLatency(crashed)
		check(lat, err, crashed)
		for k := range instants {
			clear(trace)
			i := 0
			for p := 0; p < m; p++ {
				if crashed[p] {
					i++
					trace[p] = instants[k*i%len(instants)]
				}
			}
			lat, err := rep.CrashLatencyAt(trace)
			check(lat, err, trace)
		}
		if lost {
			losses++
		}
	})
	return losses
}

// TestExhaustiveResilience is the headline verifier: for every covered
// family, m ≤ 6 and ε ∈ {1, 2}, no schedule from CAFT (support
// locking, both the portfolio and the literal greedy mode), FTSA or
// FTBAR may lose a task under ANY of the C(m, ε) crash subsets, crashed
// from the start or at timed instants (timed ε-resilience, which
// follows from static domination; DESIGN.md S4).
func TestExhaustiveResilience(t *testing.T) {
	type schedFn struct {
		name string
		run  func(p *sched.Problem, eps int, rng *rand.Rand) (*sched.Schedule, error)
	}
	algs := []schedFn{
		{"caft-portfolio", func(p *sched.Problem, eps int, rng *rand.Rand) (*sched.Schedule, error) {
			return core.Schedule(p, eps, rng)
		}},
		{"caft-greedy", func(p *sched.Problem, eps int, rng *rand.Rand) (*sched.Schedule, error) {
			s, err := core.ScheduleOpts(p, eps, rng, core.Options{Greedy: true})
			return s, err
		}},
		{"ftsa", ftsa.Schedule},
		{"ftbar", ftbar.Schedule},
	}
	for _, m := range []int{4, 6} {
		for _, eps := range []int{1, 2} {
			for _, seed := range []int64{1, 2, 3} {
				rng := rand.New(rand.NewSource(seed))
				for _, inst := range verifierInstances(rng) {
					p := verifierProblem(rng, inst.g, m)
					for _, alg := range algs {
						t.Run(fmt.Sprintf("%s/m%d/eps%d/seed%d/%s", inst.family, m, eps, seed, alg.name), func(t *testing.T) {
							s, err := alg.run(p, eps, rng)
							if err != nil {
								t.Fatal(err)
							}
							if losses := exhaustLosses(t, s, m, eps); losses > 0 {
								t.Fatalf("%d of C(%d,%d) crash subsets lost a task", losses, m, eps)
							}
						})
					}
				}
			}
		}
	}
}

// TestExhaustivePaperLockingGap documents the known resilience gap of
// the literal eq. (7) locking rule as an expected failure: on deep
// graphs two predecessors' one-to-one chains may share an upstream
// processor, so the SAME exhaustive enumeration that passes for
// support locking must find losing subsets for PaperLocking. If this
// test ever fails, the literal rule has become safe and the ablation
// (and the DESIGN.md A4 discussion) should be retired.
func TestExhaustivePaperLockingGap(t *testing.T) {
	totalLost, instances := 0, 0
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomLayered(rng, gen.RandomParams{
			MinTasks: 14, MaxTasks: 20, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150,
		})
		for _, eps := range []int{1, 2} {
			p := verifierProblem(rng, g, 6)
			s, err := core.ScheduleOpts(p, eps, rng, core.Options{Greedy: true, Locking: core.PaperLocking})
			if err != nil {
				t.Fatal(err)
			}
			instances++
			totalLost += exhaustLosses(t, s, 6, eps)
		}
	}
	if totalLost == 0 {
		t.Fatalf("PaperLocking lost no task over %d exhaustively verified instances; the documented eq. (7) gap has disappeared", instances)
	}
	t.Logf("PaperLocking lost a task in %d subset replays over %d instances (expected: > 0)", totalLost, instances)
}
