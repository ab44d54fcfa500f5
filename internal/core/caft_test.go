package core

import (
	"math"
	"math/rand"
	"testing"

	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftsa"
	"caft/internal/sched/heft"
	"caft/internal/sim"
	"caft/internal/timeline"
)

func uniformProblem(g *dag.DAG, m int, exec float64) *sched.Problem {
	p := platform.New(m, 1)
	e := platform.NewExecMatrix(g.NumTasks(), m)
	for t := range e {
		for k := range e[t] {
			e[t][k] = exec
		}
	}
	return &sched.Problem{G: g, Plat: p, Exec: e, Model: sched.OnePort, Policy: timeline.Append}
}

func randomProblem(rng *rand.Rand, n, m int, granularity float64) *sched.Problem {
	params := gen.RandomParams{MinTasks: n, MaxTasks: n, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, granularity, platform.DefaultHeterogeneity)
	return &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
}

func TestCAFTValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		p := randomProblem(rng, 40, 6, 1.0)
		for _, eps := range []int{0, 1, 2, 3} {
			s, err := Schedule(p, eps, rng)
			if err != nil {
				t.Fatalf("eps=%d: %v", eps, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("eps=%d: invalid schedule: %v", eps, err)
			}
			for ti := range s.Reps {
				if len(s.Reps[ti]) != eps+1 {
					t.Fatalf("eps=%d: task %d has %d replicas", eps, ti, len(s.Reps[ti]))
				}
			}
		}
	}
}

func TestCAFTRejectsImpossible(t *testing.T) {
	p := uniformProblem(gen.Chain(3, 5), 2, 1)
	if _, err := Schedule(p, 2, nil); err == nil {
		t.Fatal("accepted eps+1 > m")
	}
	if _, err := Schedule(p, -1, nil); err == nil {
		t.Fatal("accepted negative eps")
	}
}

// Proposition 5.1: on outforests (in-degree <= 1) CAFT generates at
// most e(ε+1) messages.
func TestProp51OutforestMessageBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(40)
		g := gen.RandomOutForest(rng, n, 1+rng.Intn(2), 0, 50, 150)
		m := 5 + rng.Intn(5)
		plat := platform.NewRandom(rng, m, 0.5, 1.0)
		exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
		p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
		for eps := 0; eps <= 3 && eps+1 <= m; eps++ {
			s, err := ScheduleOpts(p, eps, rng, Options{Greedy: true})
			if err != nil {
				t.Fatal(err)
			}
			bound := g.NumEdges() * (eps + 1)
			if got := s.MessageCount(); got > bound {
				t.Fatalf("outforest eps=%d: %d messages > bound e(eps+1)=%d", eps, got, bound)
			}
		}
	}
}

func TestForkMessageBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.Fork(12, 100)
	p := uniformProblem(g, 8, 50)
	for _, eps := range []int{1, 2, 3} {
		s, err := ScheduleOpts(p, eps, rng, Options{Greedy: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, bound := s.MessageCount(), g.NumEdges()*(eps+1); got > bound {
			t.Fatalf("fork eps=%d: %d messages > %d", eps, got, bound)
		}
	}
}

// CAFT optimizes latency, so a single instance may trade a few extra
// messages, but on aggregate it must send clearly fewer messages than
// FTSA's replicate-everywhere pattern.
func TestCAFTFewerMessagesThanFTSA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, eps := range []int{1, 3} {
		totC, totF := 0, 0
		for trial := 0; trial < 8; trial++ {
			p := randomProblem(rng, 60, 10, 1.0)
			sc, err := Schedule(p, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			sf, err := ftsa.Schedule(p, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			if float64(sc.MessageCount()) > 1.15*float64(sf.MessageCount()) {
				t.Fatalf("eps=%d: CAFT %d messages far above FTSA %d", eps, sc.MessageCount(), sf.MessageCount())
			}
			totC += sc.MessageCount()
			totF += sf.MessageCount()
		}
		if totC >= totF {
			t.Fatalf("eps=%d: CAFT total %d messages not below FTSA %d", eps, totC, totF)
		}
	}
}

// The fault-free version of CAFT reduces to HEFT (paper §6).
func TestCAFTZeroEpsEqualsHEFT(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 50, 8, 1.0)
		sc, err := ScheduleOpts(p, 0, rand.New(rand.NewSource(99)), Options{Greedy: true})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := heft.Schedule(p, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sc.ScheduledLatency()-sh.ScheduledLatency()) > sched.Eps {
			t.Fatalf("seed %d: CAFT(0) latency %v != HEFT %v", seed, sc.ScheduledLatency(), sh.ScheduledLatency())
		}
		if sc.MessageCount() != sh.MessageCount() {
			t.Fatalf("seed %d: message counts differ: %d vs %d", seed, sc.MessageCount(), sh.MessageCount())
		}
	}
}

// Heavier randomized resilience stress than the exhaustive test in
// package sim: larger graphs, eps up to 3, random crash subsets.
func TestCAFTResilienceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		m := 8
		p := randomProblem(rng, 50, m, 0.5)
		for _, eps := range []int{1, 2, 3} {
			s, err := Schedule(p, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sim.NewReplayer(s)
			if err != nil {
				t.Fatal(err)
			}
			for draw := 0; draw < 30; draw++ {
				crashed := map[int]bool{}
				for len(crashed) < eps {
					crashed[rng.Intn(m)] = true
				}
				if _, err := rep.CrashLatency(crashed); err != nil {
					t.Fatalf("eps=%d crashed=%v: %v", eps, crashed, err)
				}
			}
		}
	}
}

// TestPaperLockingGap documents the resilience gap of the literal
// eq. (7) locking rule: on deep random DAGs some single crash starves
// every replica of some task. The support-locking default must survive
// the identical scenarios. (If this test ever fails because the literal
// variant became resilient, the ablation in DESIGN.md should be
// revisited.)
func TestPaperLockingGap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gapSeen := false
	for trial := 0; trial < 20 && !gapSeen; trial++ {
		m := 5
		p := randomProblem(rng, 22, m, 1.0)
		paper, err := ScheduleOpts(p, 1, rand.New(rand.NewSource(11)), Options{Locking: PaperLocking})
		if err != nil {
			t.Fatal(err)
		}
		safe, err := ScheduleOpts(p, 1, rand.New(rand.NewSource(11)), Options{Locking: SupportLocking})
		if err != nil {
			t.Fatal(err)
		}
		safeRep, err := sim.NewReplayer(safe)
		if err != nil {
			t.Fatal(err)
		}
		paperRep, err := sim.NewReplayer(paper)
		if err != nil {
			t.Fatal(err)
		}
		for proc := 0; proc < m; proc++ {
			crashed := map[int]bool{proc: true}
			if _, err := safeRep.CrashLatency(crashed); err != nil {
				t.Fatalf("support locking lost a task on single crash: %v", err)
			}
			if _, err := paperRep.CrashLatency(crashed); err != nil {
				gapSeen = true
			}
		}
	}
	if !gapSeen {
		t.Log("no paper-locking counterexample found in 20 trials (gap is probabilistic)")
	}
}

// One-to-one mapping must visibly fire: on the same instance greedy
// CAFT sends fewer messages than the FullOnly variant, whose every
// replica receives from every replica of each predecessor.
func TestCAFTOneToOneSavesMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := randomProblem(rng, 40, 8, 1.0)
	greedy, err := ScheduleOpts(p, 2, rand.New(rand.NewSource(1)), Options{Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := ScheduleOpts(p, 2, rand.New(rand.NewSource(1)), Options{FullOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if g, f := greedy.MessageCount(), full.MessageCount(); g >= f {
		t.Fatalf("greedy CAFT sends %d messages, FullOnly %d: one-to-one mapping never fired", g, f)
	}
}

// On a fork, every leaf's replicas receive from distinct root replicas:
// the chains are exactly disjoint pairs and the upper bound stays close
// to the zero-crash latency (paper: "we keep only the best
// communication edges in the schedule").
func TestCAFTForkChainsDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gen.Fork(6, 100)
	p := uniformProblem(g, 8, 50)
	s, err := ScheduleOpts(p, 1, rng, Options{Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	// For each leaf, collect the source copies feeding each replica:
	// they must be distinct (one-to-one).
	for leaf := 1; leaf <= 6; leaf++ {
		feeders := map[int]map[int]bool{} // dst copy -> src copies
		for _, c := range s.Comms {
			if int(c.To) != leaf {
				continue
			}
			if feeders[c.DstCopy] == nil {
				feeders[c.DstCopy] = map[int]bool{}
			}
			feeders[c.DstCopy][c.SrcCopy] = true
		}
		used := map[int]bool{}
		for dst, srcs := range feeders {
			if len(srcs) != 1 {
				t.Fatalf("leaf %d copy %d fed by %d root replicas, want 1", leaf, dst, len(srcs))
			}
			for src := range srcs {
				if used[src] {
					t.Fatalf("leaf %d: root copy %d feeds two replicas", leaf, src)
				}
				used[src] = true
			}
		}
	}
}

func TestProcSet(t *testing.T) {
	s := newProcSet(70)
	s.add(3)
	s.add(69)
	if !s.has(3) || !s.has(69) || s.has(4) {
		t.Fatal("procSet membership broken")
	}
	if s.count() != 2 {
		t.Fatalf("count = %d", s.count())
	}
	o := newProcSet(70)
	o.add(68)
	if s.intersects(o) {
		t.Fatal("disjoint sets intersect")
	}
	o.add(69)
	if !s.intersects(o) {
		t.Fatal("overlapping sets do not intersect")
	}
	c := s.clone()
	c.add(5)
	if s.has(5) {
		t.Fatal("clone aliases original")
	}
	s.union(o)
	if !s.has(68) {
		t.Fatal("union missed a member")
	}
	if got := newProcSet(4).String(); got != "{}" {
		t.Fatalf("empty set string = %q", got)
	}
	one := newProcSet(4)
	one.add(2)
	if one.String() != "{P2}" {
		t.Fatalf("String = %q", one.String())
	}
}

// Exhaustive resilience at eps=3: every crash subset of size <= 3 on a
// 6-processor platform must leave at least one replica of every task.
func TestCAFTResilienceExhaustiveEps3(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3; trial++ {
		const m = 6
		p := randomProblem(rng, 30, m, 1.0)
		s, err := Schedule(p, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.NewReplayer(s)
		if err != nil {
			t.Fatal(err)
		}
		var rec func(start int, cur []int)
		rec = func(start int, cur []int) {
			if len(cur) > 0 {
				crashed := map[int]bool{}
				for _, proc := range cur {
					crashed[proc] = true
				}
				if _, err := rep.CrashLatency(crashed); err != nil {
					t.Fatalf("crashed=%v: %v", cur, err)
				}
			}
			if len(cur) == 3 {
				return
			}
			for proc := start; proc < m; proc++ {
				rec(proc+1, append(cur, proc))
			}
		}
		rec(0, nil)
	}
}

// The batch variant shares the resilience guarantee under exhaustive
// single and double crashes.
func TestBatchResilienceExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const m = 6
	p := randomProblem(rng, 30, m, 1.0)
	s, err := ScheduleBatch(p, 2, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.NewReplayer(s)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < m; a++ {
		for b := a; b < m; b++ {
			if _, err := rep.CrashLatency(map[int]bool{a: true, b: true}); err != nil {
				t.Fatalf("crash {%d,%d}: %v", a, b, err)
			}
		}
	}
}
