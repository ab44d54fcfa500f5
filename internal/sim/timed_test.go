package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/sched"
	"caft/internal/sched/ftsa"
)

func TestTimedCrashAtZeroEqualsStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, 25, 5)
	s, err := ftsa.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < 5; proc++ {
		static, err := mustReplayer(t, s).CrashLatency(map[int]bool{proc: true})
		if err != nil {
			t.Fatal(err)
		}
		timed, err := mustReplayer(t, s).CrashLatencyAt(map[int]float64{proc: 0})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(static-timed) > sched.Eps {
			t.Fatalf("P%d: timed@0 %v != static %v", proc, timed, static)
		}
	}
}

func TestTimedCrashAfterEndIsHarmless(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomProblem(rng, 25, 5)
	s, err := core.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	base, err := mustReplayer(t, s).LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	lat, err := mustReplayer(t, s).CrashLatencyAt(map[int]float64{2: s.MakespanAll() + 1000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-base) > sched.Eps {
		t.Fatalf("late crash changed latency: %v vs %v", lat, base)
	}
}

func TestTimedCrashPreservesCompletedWork(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 30, 5)
	s, err := core.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := mustReplayer(t, s).LowerBound()
	early, err := mustReplayer(t, s).CrashLatencyAt(map[int]float64{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	// A crash halfway through lets the first half of P0's work count,
	// so the result cannot be worse than losing P0 from the start.
	mid, err := mustReplayer(t, s).CrashLatencyAt(map[int]float64{0: base / 2})
	if err != nil {
		t.Fatal(err)
	}
	if mid > early+sched.Eps {
		t.Fatalf("mid-crash latency %v worse than immediate crash %v", mid, early)
	}
}

// replayTimed replays the failure trace on r and returns the replay's
// Result; a lost task is part of the outcome, any other error fails.
func replayTimed(tb testing.TB, r *Replayer, trace map[int]float64) *Result {
	tb.Helper()
	if _, err := r.CrashLatencyAt(trace); err != nil && !errors.Is(err, ErrTaskLost) {
		tb.Fatal(err)
	}
	return r.Result()
}

func TestTimedCrashReplicaSurvivesIfFinished(t *testing.T) {
	// Single replica finishing at time 2; crash at 2 keeps it, crash at
	// 1.9 kills it.
	p := prob(gen.Chain(2, 5), 3, 2)
	rng := rand.New(rand.NewSource(4))
	s, err := ftsa.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every replica of t0 finishes at 2 (entry task, exec 2).
	victim := s.Reps[0][0].Proc
	r := replayTimed(t, mustReplayer(t, s), map[int]float64{victim: 2})
	if !r.Reps[0][0].Alive {
		t.Fatal("replica finishing exactly at the crash instant must survive")
	}
	r2 := replayTimed(t, mustReplayer(t, s), map[int]float64{victim: 1.9})
	if r2.Reps[0][0].Alive {
		t.Fatal("replica finishing after the crash instant must die")
	}
	if _, err := r2.Latency(); err != nil {
		t.Fatalf("1-fault-tolerant schedule lost a task: %v", err)
	}
}

// TestTimedRoundKillsEveryViolator pins the causal clamp: a dead op
// holds its resources until its death is observable. Two independent
// tasks share P0, which crashes at 5: t0 runs [0,10) and t1 waits for
// it, [10,12). t0 misses the crash and dies at 5, which is when it
// frees P0, so t1 runs [5,7), misses the crash too and dies. A replay
// that let t1 take P0 from 0, before the crash was observable, would
// run it [0,2) and spare it; this one must not.
func TestTimedRoundKillsEveryViolator(t *testing.T) {
	p := prob(dag.New(2), 2, 10)
	p.Exec[1][0], p.Exec[1][1] = 2, 2
	st := sched.NewState(p)
	for _, pl := range []struct{ task, copy, proc int }{{0, 0, 0}, {1, 0, 0}, {0, 1, 1}, {1, 1, 1}} {
		if _, err := st.PlaceReplica(dag.TaskID(pl.task), pl.copy, pl.proc, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Snapshot()
	if r := s.Reps[1][0]; r.Proc != 0 || r.Start != 10 {
		t.Fatalf("fixture: t1 copy 0 placed at %+v, want P0 from 10", r)
	}
	res := replayTimed(t, mustReplayer(t, s), map[int]float64{0: 5})
	if res.Reps[0][0].Alive {
		t.Fatal("t0 on P0 finishes at 10, past the crash at 5, yet survived")
	}
	if res.Reps[1][0].Alive {
		t.Fatal("t1 on P0 survived: it took P0 before t0's death at the crash instant 5 freed it")
	}
	if _, err := res.Latency(); err != nil {
		t.Fatalf("the P1 replicas must survive: %v", err)
	}
}

// TestTimedCrashTimeAnomaly pins the counterexample to monotonicity in
// the crash times (DESIGN.md S4): a later crash can kill an op that an
// earlier one spares. t0 runs on P0 [0,8) and feeds t1 on P1 through
// a transfer [8,9); t1 runs [9,11) and the independent t2 [11,13), both
// on P1, which crashes at 6. When P0 crashes at 1, t1 starves at 1 and
// frees P1 then, so t2 runs [1,3) and survives. When P0 crashes at 5,
// t1 holds P1 until 5, and t2 runs [5,7) and dies.
func TestTimedCrashTimeAnomaly(t *testing.T) {
	g := dag.New(3)
	g.AddEdge(0, 1, 1)
	p := prob(g, 2, 2)
	p.Exec[0][0] = 8
	st := sched.NewState(p)
	for _, pl := range []struct{ task, proc int }{{0, 0}, {1, 1}, {2, 1}} {
		if _, err := st.PlaceReplica(dag.TaskID(pl.task), 0, pl.proc, st.FullSources(dag.TaskID(pl.task))); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Snapshot()
	if r := s.Reps[2][0]; r.Proc != 1 || r.Start != 11 {
		t.Fatalf("fixture: t2 placed at %+v, want P1 from 11", r)
	}
	rep := mustReplayer(t, s)
	early := replayTimed(t, rep, map[int]float64{0: 1, 1: 6})
	if o := early.Reps[2][0]; !o.Alive || o.Start != 1 || o.Finish != 3 {
		t.Fatalf("P0 crashing at 1: t2 = %+v, want alive [1,3)", o.Fate)
	}
	late := replayTimed(t, rep, map[int]float64{0: 5, 1: 6})
	if late.Reps[2][0].Alive {
		t.Fatal("P0 crashing at 5: t2 survived, but t1 holds P1 until 5, so t2 cannot finish before P1's crash at 6")
	}
}

func TestTimedCrashResilience(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 30, 6)
	for _, eps := range []int{1, 2} {
		s, err := core.Schedule(p, eps, rng)
		if err != nil {
			t.Fatal(err)
		}
		horizon := s.MakespanAll()
		for draw := 0; draw < 25; draw++ {
			times := map[int]float64{}
			for len(times) < eps {
				times[rng.Intn(6)] = rng.Float64() * horizon
			}
			if _, err := mustReplayer(t, s).CrashLatencyAt(times); err != nil {
				t.Fatalf("eps=%d times=%v: %v", eps, times, err)
			}
		}
	}
}

func TestReplayExposesCommOutcomes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := randomProblem(rng, 20, 4)
	s, err := ftsa.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	r := mustReplayer(t, s).Replay(nil)
	if len(r.Comms) != len(s.Comms) {
		t.Fatalf("comm outcomes %d != comms %d", len(r.Comms), len(s.Comms))
	}
	for i, o := range r.Comms {
		if !o.Alive {
			t.Fatalf("comm %d dead with no crashes", i)
		}
		if o.Finish < o.Start-sched.Eps {
			t.Fatalf("comm %d finishes before it starts", i)
		}
	}
}
