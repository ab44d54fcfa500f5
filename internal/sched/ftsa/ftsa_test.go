package ftsa

import (
	"math/rand"
	"testing"

	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
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

func randomProblem(rng *rand.Rand, n, m int) *sched.Problem {
	params := gen.RandomParams{MinTasks: n, MaxTasks: n, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
}

func TestFTSAValidAndReplicated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		p := randomProblem(rng, 40, 6)
		for _, eps := range []int{0, 1, 2} {
			s, err := Schedule(p, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("eps=%d: %v", eps, err)
			}
			for ti := range s.Reps {
				if len(s.Reps[ti]) != eps+1 {
					t.Fatalf("eps=%d: task %d has %d replicas", eps, ti, len(s.Reps[ti]))
				}
			}
		}
	}
}

// FTSA's message count is bounded by e(ε+1)².
func TestFTSAQuadraticMessageBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		p := randomProblem(rng, 50, 8)
		for _, eps := range []int{1, 2, 3} {
			s, err := Schedule(p, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			bound := p.G.NumEdges() * (eps + 1) * (eps + 1)
			if got := s.MessageCount(); got > bound {
				t.Fatalf("eps=%d: %d messages > e(eps+1)^2 = %d", eps, got, bound)
			}
		}
	}
}

func TestFTSAErrors(t *testing.T) {
	p := uniformProblem(gen.Chain(3, 10), 2, 1)
	if _, err := Schedule(p, 2, nil); err == nil {
		t.Fatal("accepted eps+1 > m")
	}
	if _, err := Schedule(p, -1, nil); err == nil {
		t.Fatal("accepted negative eps")
	}
	bad := *p
	bad.Exec = platform.NewExecMatrix(1, 2)
	if _, err := Schedule(&bad, 0, nil); err == nil {
		t.Fatal("accepted invalid problem")
	}
}

// HEFT (eps=0) on a 2-task chain with expensive communication keeps
// both tasks on one processor.
func TestEpsZeroAvoidsExpensiveComm(t *testing.T) {
	g := gen.Chain(2, 1000) // W = 1000 across procs
	p := uniformProblem(g, 3, 2)
	s, err := Schedule(p, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Reps[0][0].Proc != s.Reps[1][0].Proc {
		t.Fatal("HEFT split a chain across processors despite huge comm cost")
	}
	if s.ScheduledLatency() != 4 {
		t.Fatalf("latency = %v, want 4", s.ScheduledLatency())
	}
	if s.MessageCount() != 0 {
		t.Fatalf("messages = %d, want 0", s.MessageCount())
	}
}

// With free communication and more processors than tasks on a fork,
// leaves spread out and run concurrently.
func TestEpsZeroParallelizesFork(t *testing.T) {
	g := gen.Fork(4, 0.001) // nearly free messages
	p := uniformProblem(g, 5, 10)
	s, err := Schedule(p, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Root [0,10); each leaf needs a 0.001 message (serialized at the
	// root's send port) or runs locally. Latency must be far below the
	// serial 50.
	if s.ScheduledLatency() > 21 {
		t.Fatalf("latency = %v, fork not parallelized", s.ScheduledLatency())
	}
}

func TestFTSAResilience(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randomProblem(rng, 40, 6)
	for _, eps := range []int{1, 2} {
		s, err := Schedule(p, eps, rng)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.NewReplayer(s)
		if err != nil {
			t.Fatal(err)
		}
		for draw := 0; draw < 20; draw++ {
			crashed := map[int]bool{}
			for len(crashed) < eps {
				crashed[rng.Intn(6)] = true
			}
			if _, err := rep.CrashLatency(crashed); err != nil {
				t.Fatalf("eps=%d crashed=%v: %v", eps, crashed, err)
			}
		}
	}
}

// Replicas of a task must finish no earlier than the best replica found
// by the candidate scan — i.e., the committed placement uses the
// min-EFT processors.
func TestFTSAPicksMinEFT(t *testing.T) {
	g := gen.Chain(2, 1) // tiny message: W = 1
	p := uniformProblem(g, 4, 5)
	// Make P2 much faster for task 1.
	p.Exec[1][2] = 1
	s, err := Schedule(p, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// t0 lands on some processor at [0,5). Keeping t1 there costs 5 more
	// (finish 10); shipping to the fast P2 costs 1 (arrive 6) + 1 (exec)
	// = finish 7. Min-EFT must migrate.
	if s.Reps[1][0].Proc != 2 {
		t.Fatalf("t1 on P%d, want the fast P2", s.Reps[1][0].Proc)
	}
	if s.ScheduledLatency() != 7 {
		t.Fatalf("latency = %v, want 7", s.ScheduledLatency())
	}
}
