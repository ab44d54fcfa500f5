package sim

// Boundary properties of the timed fail-stop semantics: the timed
// replay must degenerate bit-identically to the static replay at crash
// time 0, to the no-failure replay past the makespan, and its dead set
// must be monotone in the crash times (earlier crashes never revive an
// operation).

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
			timed, err := rep.ReplayTimed(times)
			if err != nil {
				t.Fatal(err)
			}
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
		timed, err := rep.ReplayTimed(times)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "crash@past-makespan", timed, clean)
	}
}

// aliveSet flattens which operations survived a replay.
func aliveSet(r *Result) []bool {
	var out []bool
	for t := range r.Reps {
		for _, o := range r.Reps[t] {
			out = append(out, o.Alive)
		}
	}
	for _, o := range r.Comms {
		out = append(out, o.Alive)
	}
	return out
}

// TestTimedDeadSetMonotone checks the fixpoint's defining property on
// randomized schedules: lowering crash times (crashing earlier) can
// only kill more — every operation alive under the earlier crashes is
// alive under the later ones.
func TestTimedDeadSetMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range schedulesUnderTest(t, 13) {
		rep, err := NewReplayer(s)
		if err != nil {
			t.Fatal(err)
		}
		horizon := s.MakespanAll()
		for draw := 0; draw < 40; draw++ {
			late := map[int]float64{}
			early := map[int]float64{}
			nCrash := 1 + rng.Intn(s.P.Plat.M)
			for len(late) < nCrash {
				p := rng.Intn(s.P.Plat.M)
				if _, ok := late[p]; ok {
					continue
				}
				tau := rng.Float64() * 1.2 * horizon
				late[p] = tau
				early[p] = tau * rng.Float64()
			}
			rLate, err := rep.ReplayTimed(late)
			if err != nil {
				t.Fatal(err)
			}
			rEarly, err := rep.ReplayTimed(early)
			if err != nil {
				t.Fatal(err)
			}
			aLate, aEarly := aliveSet(rLate), aliveSet(rEarly)
			for i := range aEarly {
				if aEarly[i] && !aLate[i] {
					t.Fatalf("draw %d: op %d alive under earlier crashes %v but dead under later %v",
						draw, i, early, late)
				}
			}
		}
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
			reused, err := rep.ReplayTimed(times)
			if err != nil {
				t.Fatal(err)
			}
			oneshot, err := mustReplayer(t, s).ReplayTimed(times)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "reused-vs-oneshot", reused, oneshot)
			// A static replay in between must not poison the timed scratch.
			rep.Replay(map[int]bool{draw % s.P.Plat.M: true})
		}
	}
}
