package sim

import (
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
	r, err := mustReplayer(t, s).ReplayTimed(map[int]float64{victim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reps[0][0].Alive {
		t.Fatal("replica finishing exactly at the crash instant must survive")
	}
	r2, err := mustReplayer(t, s).ReplayTimed(map[int]float64{victim: 1.9})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Reps[0][0].Alive {
		t.Fatal("replica finishing after the crash instant must die")
	}
	if _, err := r2.Latency(); err != nil {
		t.Fatalf("1-fault-tolerant schedule lost a task: %v", err)
	}
}

// TestTimedRoundKillsEveryViolator pins the round rule of the timed
// fixpoint: each pass kills every operation that misses its crash
// instant at once, so the dead set is not the least one. Two
// independent tasks share P0, which crashes at 5: t0 runs [0,10) and
// t1 waits for it, [10,12). Both miss the crash, so the first pass
// kills both, although t1 alone on P0 would have run [0,2) and beaten
// it. A rule killing violators one by one inside the pass would spare
// t1; this replay must not.
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
	res, err := mustReplayer(t, s).ReplayTimed(map[int]float64{0: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps[0][0].Alive {
		t.Fatal("t0 on P0 finishes at 10, past the crash at 5, yet survived")
	}
	if res.Reps[1][0].Alive {
		t.Fatal("t1 on P0 survived: the fixpoint no longer kills every violator of a round at once")
	}
	if _, err := res.Latency(); err != nil {
		t.Fatalf("the P1 replicas must survive: %v", err)
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
