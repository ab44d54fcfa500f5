package sim

import (
	"math"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftsa"
	"caft/internal/timeline"
)

func prob(g *dag.DAG, m int, exec float64) *sched.Problem {
	p := platform.New(m, 1)
	e := platform.NewExecMatrix(g.NumTasks(), m)
	for t := range e {
		for k := range e[t] {
			e[t][k] = exec
		}
	}
	return &sched.Problem{G: g, Plat: p, Exec: e, Model: sched.OnePort, Policy: timeline.Append}
}

// mustReplayer builds a Replayer for s, failing the test on error.
func mustReplayer(tb testing.TB, s *sched.Schedule) *Replayer {
	tb.Helper()
	r, err := NewReplayer(s)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func randomProblem(rng *rand.Rand, n, m int) *sched.Problem {
	params := gen.RandomParams{MinTasks: n, MaxTasks: n, MinDegree: 1, MaxDegree: 3, MinVolume: 5, MaxVolume: 15}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
}

func TestReplayNoCrashReproducesSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(rng, 20+rng.Intn(20), 4)
		s, err := ftsa.Schedule(p, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		r := mustReplayer(t, s).Replay(nil)
		for ti := range s.Reps {
			for i, rep := range s.Reps[ti] {
				o := r.Reps[ti][i]
				if !o.Alive {
					t.Fatalf("replica (%d,%d) dead with no crashes", ti, rep.Copy)
				}
				if math.Abs(o.Start-rep.Start) > sched.Eps || math.Abs(o.Finish-rep.Finish) > sched.Eps {
					t.Fatalf("replica (%d,%d): replay [%v,%v) vs scheduled [%v,%v)",
						ti, rep.Copy, o.Start, o.Finish, rep.Start, rep.Finish)
				}
			}
		}
		lat, err := r.Latency()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lat-s.ScheduledLatency()) > sched.Eps {
			t.Fatalf("latency %v vs scheduled %v", lat, s.ScheduledLatency())
		}
	}
}

func TestUpperBoundAtLeastLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(rng, 25, 5)
		for _, eps := range []int{1, 2} {
			s, err := ftsa.Schedule(p, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := mustReplayer(t, s).LowerBound()
			if err != nil {
				t.Fatal(err)
			}
			ub, err := mustReplayer(t, s).UpperBound()
			if err != nil {
				t.Fatal(err)
			}
			if ub < lb-sched.Eps {
				t.Fatalf("eps=%d: upper bound %v < lower bound %v", eps, ub, lb)
			}
		}
	}
}

func TestCrashKillsReplicaOtherSurvives(t *testing.T) {
	// Chain t0 -> t1, two replicas each on 3 procs.
	g := gen.Chain(2, 5)
	p := prob(g, 3, 2)
	rng := rand.New(rand.NewSource(1))
	s, err := ftsa.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Crash the processor hosting copy 0 of t1.
	victim := s.Reps[1][0].Proc
	r := mustReplayer(t, s).Replay(map[int]bool{victim: true})
	if _, err := r.Latency(); err != nil {
		t.Fatalf("single crash lost a task in a 1-fault-tolerant schedule: %v", err)
	}
	dead := 0
	for ti := range r.Reps {
		for _, o := range r.Reps[ti] {
			if o.Rep.Proc == victim && o.Alive {
				t.Fatal("replica on crashed processor still alive")
			}
			if !o.Alive {
				dead++
			}
		}
	}
	if dead == 0 {
		t.Fatal("crash killed nothing")
	}
}

func TestCrashCascadeKillsDependents(t *testing.T) {
	// Build by hand: t0 on P0 only feeds t1's copy on P1 (one-to-one
	// style); crashing P0 must kill both t0's replica and starve t1's
	// P1 replica, while t1's other copy fed by t0's other copy survives.
	g := gen.Chain(2, 5)
	p := prob(g, 4, 2)
	st := sched.NewState(p)
	r00, _ := st.PlaceReplica(0, 0, 0, nil)
	r01, _ := st.PlaceReplica(0, 1, 1, nil)
	st.PlaceReplica(1, 0, 2, []sched.SourceSet{{Pred: 0, Volume: 5, Sources: []sched.Replica{r00}}})
	st.PlaceReplica(1, 1, 3, []sched.SourceSet{{Pred: 0, Volume: 5, Sources: []sched.Replica{r01}}})
	s := st.Snapshot()
	r := mustReplayer(t, s).Replay(map[int]bool{0: true})
	if r.Reps[1][0].Alive {
		t.Fatal("replica starved of its only input still alive")
	}
	if !r.Reps[1][1].Alive {
		t.Fatal("independent chain killed by unrelated crash")
	}
	if _, err := r.Latency(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashCanShiftRemainingEarlier(t *testing.T) {
	// Paper Fig. 1(b)/2(b) phenomenon, scenario (i) of Section 6: if a
	// processor holding an early-but-redundant sender crashes, its
	// message disappears from the receive port and a later-needed
	// message arrives earlier.
	g := gen.Join(2, 4) // t0,t1 -> t2
	p := prob(g, 6, 1)
	st := sched.NewState(p)
	r00, _ := st.PlaceReplica(0, 0, 0, nil)
	r01, _ := st.PlaceReplica(0, 1, 1, nil)
	r10, _ := st.PlaceReplica(1, 0, 2, nil)
	r11, _ := st.PlaceReplica(1, 1, 3, nil)
	full := []sched.SourceSet{
		{Pred: 0, Volume: 4, Sources: []sched.Replica{r00, r01}},
		{Pred: 1, Volume: 4, Sources: []sched.Replica{r10, r11}},
	}
	rep, _ := st.PlaceReplica(2, 0, 4, full)
	st.PlaceReplica(2, 1, 5, full)
	s := st.Snapshot()
	// Replay with no crash: all four messages serialize into P4's
	// receive port; first-arrival start for t2 needs one per pred.
	base := mustReplayer(t, s).Replay(nil)
	baseStart := base.Reps[2][0].Start
	if baseStart != rep.Start {
		t.Fatalf("baseline replay start %v != scheduled %v", baseStart, rep.Start)
	}
	// Crash P1 (a redundant copy of t0): P4 receives fewer messages, so
	// the needed t1 message can only arrive earlier or at the same time.
	r2 := mustReplayer(t, s).Replay(map[int]bool{1: true})
	if r2.Reps[2][0].Start > baseStart+sched.Eps {
		t.Fatalf("removing a redundant message delayed the replica: %v > %v", r2.Reps[2][0].Start, baseStart)
	}
}

func TestCrashCanDelayLatency(t *testing.T) {
	// Scenario (ii): crash the fast source; the survivor's message
	// arrives later, so the consumer starts later.
	g := gen.Chain(2, 5)
	p := prob(g, 4, 2)
	p.Exec[0][1] = 8 // replica of t0 on P1 is slow
	st := sched.NewState(p)
	r00, _ := st.PlaceReplica(0, 0, 0, nil) // fast, [0,2)
	r01, _ := st.PlaceReplica(0, 1, 1, nil) // slow, [0,8)
	full := []sched.SourceSet{{Pred: 0, Volume: 5, Sources: []sched.Replica{r00, r01}}}
	st.PlaceReplica(1, 0, 2, full)
	st.PlaceReplica(1, 1, 3, full)
	s := st.Snapshot()
	lat0, err := mustReplayer(t, s).CrashLatency(nil)
	if err != nil {
		t.Fatal(err)
	}
	lat1, err := mustReplayer(t, s).CrashLatency(map[int]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	if lat1 <= lat0 {
		t.Fatalf("crashing the fast source should delay: %v <= %v", lat1, lat0)
	}
}

func TestTooManyCrashesLosesTask(t *testing.T) {
	g := gen.Chain(3, 5)
	p := prob(g, 4, 2)
	rng := rand.New(rand.NewSource(9))
	s, err := ftsa.Schedule(p, 1, rng) // tolerates 1 failure
	if err != nil {
		t.Fatal(err)
	}
	// Crash both processors hosting t0's replicas: t0 is lost.
	crashed := map[int]bool{}
	for _, r := range s.Reps[0] {
		crashed[r.Proc] = true
	}
	r := mustReplayer(t, s).Replay(crashed)
	if len(r.TasksLost) == 0 {
		t.Fatal("killing every replica of a task should lose it")
	}
	if _, err := r.Latency(); err == nil {
		t.Fatal("Latency must error when a task is lost")
	}
}

func TestReplayMacroDataflow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 20, 4)
	p.Model = sched.MacroDataflow
	s, err := ftsa.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	r := mustReplayer(t, s).Replay(nil)
	lat, err := r.Latency()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-s.ScheduledLatency()) > sched.Eps {
		t.Fatalf("macro-dataflow replay latency %v vs scheduled %v", lat, s.ScheduledLatency())
	}
}

// Exhaustive resilience check: for small random problems and every crash
// subset of size <= eps, the CAFT and FTSA schedules must keep at least
// one replica of every task alive, and the replays must be finite.
func TestResilienceExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		m := 5
		p := randomProblem(rng, 12+rng.Intn(10), m)
		for _, eps := range []int{1, 2} {
			schedules := map[string]*sched.Schedule{}
			var err error
			if schedules["ftsa"], err = ftsa.Schedule(p, eps, rng); err != nil {
				t.Fatal(err)
			}
			if schedules["caft"], err = core.Schedule(p, eps, rng); err != nil {
				t.Fatal(err)
			}
			for name, s := range schedules {
				if err := s.Validate(); err != nil {
					t.Fatalf("%s eps=%d: invalid schedule: %v", name, eps, err)
				}
				forEachSubset(m, eps, func(crashed map[int]bool) {
					lat, err := mustReplayer(t, s).CrashLatency(crashed)
					if err != nil {
						t.Fatalf("%s eps=%d crashed=%v: %v", name, eps, crashed, err)
					}
					if math.IsInf(lat, 1) || lat <= 0 {
						t.Fatalf("%s eps=%d crashed=%v: bad latency %v", name, eps, crashed, lat)
					}
				})
			}
		}
	}
}

// forEachSubset enumerates all non-empty subsets of {0..m-1} with size
// at most k.
func forEachSubset(m, k int, f func(map[int]bool)) {
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			set := map[int]bool{}
			for _, p := range cur {
				set[p] = true
			}
			f(set)
		}
		if len(cur) == k {
			return
		}
		for p := start; p < m; p++ {
			rec(p+1, append(cur, p))
		}
	}
	rec(0, nil)
}
