package bounds

import (
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/heft"
	"caft/internal/timeline"
)

func chainProblem(n, m int, exec float64) *sched.Problem {
	g := gen.Chain(n, 10)
	plat := platform.New(m, 1)
	e := platform.NewExecMatrix(n, m)
	for t := range e {
		for k := range e[t] {
			e[t][k] = exec
		}
	}
	return &sched.Problem{G: g, Plat: plat, Exec: e, Model: sched.OnePort, Policy: timeline.Append}
}

func TestCriticalPathChain(t *testing.T) {
	p := chainProblem(5, 3, 2)
	if cp := CriticalPath(p); cp != 10 {
		t.Errorf("CriticalPath = %v, want 10", cp)
	}
}

func TestCriticalPathUsesMinExec(t *testing.T) {
	p := chainProblem(2, 2, 4)
	p.Exec[1][1] = 1 // fast copy on P1
	if cp := CriticalPath(p); cp != 5 {
		t.Errorf("CriticalPath = %v, want 5 (4 + min(4,1))", cp)
	}
}

func TestWorkBound(t *testing.T) {
	p := chainProblem(6, 3, 2)
	if w := Work(p); w != 4 { // 12 total / 3 procs
		t.Errorf("Work = %v, want 4", w)
	}
}

func TestLatencyIsMaxOfBounds(t *testing.T) {
	// Wide fork: work bound dominates the chain bound.
	g := gen.Fork(30, 1)
	plat := platform.New(2, 1)
	e := platform.NewExecMatrix(31, 2)
	for ti := range e {
		for k := range e[ti] {
			e[ti][k] = 2
		}
	}
	p := &sched.Problem{G: g, Plat: plat, Exec: e, Model: sched.OnePort, Policy: timeline.Append}
	if cp := CriticalPath(p); cp != 4 {
		t.Fatalf("cp = %v", cp)
	}
	if w := Work(p); w != 31 {
		t.Fatalf("work = %v", w)
	}
	if l := Latency(p); l != 31 {
		t.Errorf("Latency = %v, want 31", l)
	}
}

// Every schedule produced by the heuristics respects the bounds.
func TestSchedulesRespectBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		g := gen.RandomLayered(rng, gen.RandomParams{MinTasks: 30, MaxTasks: 50, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150})
		plat := platform.NewRandom(rng, 6, 0.5, 1.0)
		exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
		p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
		sh, err := heft.Schedule(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if sh.ScheduledLatency() < Latency(p)-1e-9 {
			t.Fatalf("HEFT latency %v beats the lower bound %v", sh.ScheduledLatency(), Latency(p))
		}
		if r := SLR(sh); r < 1 {
			t.Fatalf("SLR = %v < 1", r)
		}
		for _, eps := range []int{1, 2} {
			sc, err := core.Schedule(p, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			// With replication, even the last replica cannot beat the
			// replicated work bound on the full makespan.
			if sc.ScheduledLatency() < CriticalPath(p)-1e-9 {
				t.Fatalf("eps=%d latency %v beats critical path %v", eps, sc.ScheduledLatency(), CriticalPath(p))
			}
			if rw := Work(p) * float64(eps+1); sc.MakespanAll() < rw-1e-9 {
				t.Fatalf("eps=%d makespan %v beats replicated work %v", eps, sc.MakespanAll(), rw)
			}
		}
	}
}
