package ftbar

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

func randomProblem(rng *rand.Rand, n, m int) *sched.Problem {
	params := gen.RandomParams{MinTasks: n, MaxTasks: n, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
}

func TestFTBARValidAndReplicated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4; trial++ {
		p := randomProblem(rng, 35, 6)
		for _, npf := range []int{0, 1, 2} {
			s, err := Schedule(p, npf, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("npf=%d: %v", npf, err)
			}
			// Minimize-Start-Time may add duplicates beyond the npf+1
			// mandatory replicas; never fewer.
			for ti := range s.Reps {
				if len(s.Reps[ti]) < npf+1 {
					t.Fatalf("npf=%d: task %d has %d replicas", npf, ti, len(s.Reps[ti]))
				}
			}
		}
	}
}

func TestFTBARSchedulesEveryFreeTaskEventually(t *testing.T) {
	// A wide fork exercises the urgency selection across many free
	// tasks at once.
	rng := rand.New(rand.NewSource(2))
	g := gen.Fork(20, 100)
	plat := platform.NewRandom(rng, 5, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
	s, err := Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.ReplicaCount() < 2*g.NumTasks() {
		t.Fatalf("replicas = %d, want >= %d", s.ReplicaCount(), 2*g.NumTasks())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFTBARErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 10, 3)
	if _, err := Schedule(p, 3, rng); err == nil {
		t.Fatal("accepted npf+1 > m")
	}
	if _, err := Schedule(p, -2, rng); err == nil {
		t.Fatal("accepted negative npf")
	}
}

func TestFTBARResilience(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randomProblem(rng, 30, 6)
	for _, npf := range []int{1, 2} {
		s, err := Schedule(p, npf, rng)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.NewReplayer(s)
		if err != nil {
			t.Fatal(err)
		}
		for draw := 0; draw < 15; draw++ {
			crashed := map[int]bool{}
			for len(crashed) < npf {
				crashed[rng.Intn(6)] = true
			}
			if _, err := rep.CrashLatency(crashed); err != nil {
				t.Fatalf("npf=%d crashed=%v: %v", npf, crashed, err)
			}
		}
	}
}

// The schedule-pressure rule must prefer the processor with the
// earliest start for a single free task (pressure differs from EST by a
// task-constant).
func TestPressurePrefersEarliestStart(t *testing.T) {
	g := dag.New(1)
	plat := platform.New(3, 1)
	exec := platform.NewExecMatrix(1, 3)
	exec[0] = []float64{5, 3, 9}
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
	s, err := Schedule(p, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// All ESTs are 0; FTBAR breaks the tie on processor index, so P0.
	// What matters: a valid single placement with correct duration.
	rep := s.Reps[0][0]
	if rep.Finish-rep.Start != exec[0][rep.Proc] {
		t.Fatalf("replica duration %v on P%d", rep.Finish-rep.Start, rep.Proc)
	}
}

// Minimize-Start-Time duplicates the critical predecessor when that
// reduces the start: a two-task chain with a huge message must end up
// co-located even though the entry task's min-EFT processor is fixed
// first.
func TestMinimizeStartTimeDuplicates(t *testing.T) {
	g := gen.Chain(2, 1000) // enormous message
	plat := platform.New(3, 1)
	exec := platform.NewExecMatrix(2, 3)
	for ti := range exec {
		for k := range exec[ti] {
			exec[ti][k] = 2
		}
	}
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
	s, err := Schedule(p, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each replica of t1 must have a co-located copy of t0 (original or
	// duplicated): no replica should wait 1000 time units.
	for _, r := range s.Reps[1] {
		if r.Start > 10 {
			t.Fatalf("t1 copy %d starts at %v: duplication did not fire", r.Copy, r.Start)
		}
	}
}
