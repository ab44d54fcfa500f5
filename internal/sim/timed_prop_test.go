package sim

// Boundary properties of the timed fail-stop semantics: the timed
// replay must degenerate bit-identically to the static replay at crash
// time 0 and to the no-failure replay past the makespan. Its dead set
// is not monotone in the crash times (DESIGN.md S4); the properties it
// does have, static domination and timed ε-resilience, are pinned by
// the root TestOnlineStaticEquivalence and TestExhaustiveResilience.

import (
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/sched"
	"caft/internal/sched/ftbar"
	"caft/internal/sched/ftsa"
)

// sameResult asserts two replay results are bit-identical in every
// outcome field (Alive, Start, Finish per replica and communication,
// and the lost-task list).
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.TasksLost) != len(want.TasksLost) {
		t.Fatalf("%s: lost %v, want %v", label, got.TasksLost, want.TasksLost)
	}
	for i := range want.TasksLost {
		if got.TasksLost[i] != want.TasksLost[i] {
			t.Fatalf("%s: lost %v, want %v", label, got.TasksLost, want.TasksLost)
		}
	}
	for task := range want.Reps {
		for i, w := range want.Reps[task] {
			g := got.Reps[task][i]
			if g.Alive != w.Alive || g.Start != w.Start || g.Finish != w.Finish {
				t.Fatalf("%s: replica (%d,%d) = {alive %v, %v, %v}, want {alive %v, %v, %v}",
					label, task, w.Rep.Copy, g.Alive, g.Start, g.Finish, w.Alive, w.Start, w.Finish)
			}
		}
	}
	for i, w := range want.Comms {
		g := got.Comms[i]
		if g.Alive != w.Alive || g.Start != w.Start || g.Finish != w.Finish {
			t.Fatalf("%s: comm %d = {alive %v, %v, %v}, want {alive %v, %v, %v}",
				label, i, g.Alive, g.Start, g.Finish, w.Alive, w.Start, w.Finish)
		}
	}
}

// schedulesUnderTest builds one schedule per algorithm on a shared
// random problem.
func schedulesUnderTest(t *testing.T, seed int64) []*sched.Schedule {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := randomProblem(rng, 30, 6)
	sCA, err := core.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sFT, err := ftsa.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sFB, err := ftbar.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	return []*sched.Schedule{sCA, sFT, sFB}
}

func TestTimedZeroBitIdenticalToStatic(t *testing.T) {
	for _, s := range schedulesUnderTest(t, 11) {
		rep, err := NewReplayer(s)
		if err != nil {
			t.Fatal(err)
		}
		m := s.P.Plat.M
		sets := [][]int{}
		for proc := 0; proc < m; proc++ {
			sets = append(sets, []int{proc})
		}
		sets = append(sets, []int{0, 3}, []int{1, 4, 5})
		for _, set := range sets {
			crashed := map[int]bool{}
			times := map[int]float64{}
			for _, p := range set {
				crashed[p] = true
				times[p] = 0
			}
			static := rep.Replay(crashed)
			timed := replayTimed(t, rep, times)
			sameResult(t, "crash@0", timed, static)
		}
	}
}

func TestTimedPastMakespanBitIdenticalToNoFailure(t *testing.T) {
	for _, s := range schedulesUnderTest(t, 12) {
		rep, err := NewReplayer(s)
		if err != nil {
			t.Fatal(err)
		}
		clean := rep.Replay(nil)
		// The horizon must cover every operation, comms included: FTSA
		// ships redundant messages that may legitimately finish after the
		// last replica (their destination already started from an earlier
		// arrival), and a crash between the last replica and such a
		// message would still kill the message.
		horizon := s.MakespanAll()
		for _, o := range clean.Comms {
			if o.Finish > horizon {
				horizon = o.Finish
			}
		}
		times := map[int]float64{}
		for proc := 0; proc < s.P.Plat.M; proc++ {
			times[proc] = horizon + 1 + float64(proc)
		}
		timed := replayTimed(t, rep, times)
		sameResult(t, "crash@past-makespan", timed, clean)
	}
}

// TestTimedScratchReuseMatchesThrowaway pins the reused scratch path to
// a one-shot replay: interleaved static and timed replays on one
// Replayer must equal fresh-Replayer results bit for bit.
func TestTimedScratchReuseMatchesThrowaway(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, s := range schedulesUnderTest(t, 14) {
		rep, err := NewReplayer(s)
		if err != nil {
			t.Fatal(err)
		}
		horizon := s.MakespanAll()
		for draw := 0; draw < 10; draw++ {
			times := map[int]float64{
				rng.Intn(s.P.Plat.M): rng.Float64() * horizon,
				rng.Intn(s.P.Plat.M): rng.Float64() * horizon,
			}
			reused := replayTimed(t, rep, times)
			oneshot := replayTimed(t, mustReplayer(t, s), times)
			sameResult(t, "reused-vs-oneshot", reused, oneshot)
			// A static replay in between must not poison the timed scratch.
			rep.Replay(map[int]bool{draw % s.P.Plat.M: true})
		}
	}
}
