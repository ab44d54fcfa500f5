package sim

import (
	"errors"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/sched"
	"caft/internal/sched/ftbar"
	"caft/internal/sched/ftsa"
	"caft/internal/timeline"
)

// resultsEqual compares two replays bit-exactly: same liveness, same
// start/finish times, same lost tasks. The dense engine updates
// operations in the same order as the reference, so even the float
// arithmetic must agree exactly.
func resultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Reps) != len(want.Reps) || len(got.Comms) != len(want.Comms) {
		t.Fatalf("%s: shape mismatch", label)
	}
	for ti := range want.Reps {
		if len(got.Reps[ti]) != len(want.Reps[ti]) {
			t.Fatalf("%s: task %d replica count %d vs %d", label, ti, len(got.Reps[ti]), len(want.Reps[ti]))
		}
		for i, w := range want.Reps[ti] {
			g := got.Reps[ti][i]
			if g.Alive != w.Alive || g.Start != w.Start || g.Finish != w.Finish {
				t.Fatalf("%s: replica (%d,%d): got alive=%v [%v,%v), want alive=%v [%v,%v)",
					label, ti, w.Rep.Copy, g.Alive, g.Start, g.Finish, w.Alive, w.Start, w.Finish)
			}
		}
	}
	for i, w := range want.Comms {
		g := got.Comms[i]
		if g.Alive != w.Alive || g.Start != w.Start || g.Finish != w.Finish {
			t.Fatalf("%s: comm %d: got alive=%v [%v,%v), want alive=%v [%v,%v)",
				label, i, g.Alive, g.Start, g.Finish, w.Alive, w.Start, w.Finish)
		}
	}
	if len(got.TasksLost) != len(want.TasksLost) {
		t.Fatalf("%s: lost %v vs %v", label, got.TasksLost, want.TasksLost)
	}
	for i := range want.TasksLost {
		if got.TasksLost[i] != want.TasksLost[i] {
			t.Fatalf("%s: lost %v vs %v", label, got.TasksLost, want.TasksLost)
		}
	}
}

// TestReplayerMatchesReference drives the dense scratch-buffer engine
// and the original map-based engine over the same schedules and crash
// sets (including crash sets beyond ε for the loss path, and one
// Replayer reused across every replay of a schedule) and requires
// identical results, and UpperBound to match the reference's
// last-arrival replay, on each of the WitnessNets. The reference
// serializes every link of every route, so equality on the star and
// the mesh shows that the port-implied links the wiring leaves out
// change no replayed time.
func TestReplayerMatchesReference(t *testing.T) {
	const m = 5
	for _, nc := range WitnessNets(t, m) {
		rng := rand.New(rand.NewSource(23))
		build := []struct {
			name string
			f    func(p *sched.Problem, eps int) (*sched.Schedule, error)
		}{
			{"caft", func(p *sched.Problem, eps int) (*sched.Schedule, error) { return core.Schedule(p, eps, rng) }},
			{"ftsa", func(p *sched.Problem, eps int) (*sched.Schedule, error) { return ftsa.Schedule(p, eps, rng) }},
			{"ftbar", func(p *sched.Problem, eps int) (*sched.Schedule, error) { return ftbar.Schedule(p, eps, rng) }},
		}
		for trial := 0; trial < 4; trial++ {
			p := randomProblem(rng, 25+rng.Intn(15), m)
			p.Net = nc.Net
			if trial == 3 {
				p.Policy = timeline.Insertion
			}
			for _, bld := range build {
				s, err := bld.f(p, 1+trial%2)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := NewReplayer(s)
				if err != nil {
					t.Fatal(err)
				}
				label := nc.Name + "/" + bld.name
				// No crash, single crashes, and an over-ε triple crash.
				crashSets := []map[int]bool{nil, {0: true}, {m - 1: true}, {0: true, 2: true, 4: true}}
				for ci, crashed := range crashSets {
					want, err := refReplay(s, crashed, false)
					if err != nil {
						t.Fatal(err)
					}
					resultsEqual(t, label, rep.Replay(crashed), want)
					if ci > 0 {
						// Latency-only fast path agrees too.
						lat, err := rep.CrashLatency(crashed)
						wantLat, wantErr := want.Latency()
						if (err == nil) != (wantErr == nil) || lat != wantLat {
							t.Fatalf("%s: CrashLatency %v (%v) vs %v (%v)", label, lat, err, wantLat, wantErr)
						}
						if err != nil && !errors.Is(err, ErrTaskLost) {
							t.Fatalf("%s: lost-task error %v does not satisfy ErrTaskLost", label, err)
						}
					}
				}
				// UpperBound is the latest replica finish of the
				// last-arrival, no-crash replay.
				last, err := refReplay(s, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				wantUB := 0.0
				for _, reps := range last.Reps {
					for _, o := range reps {
						if o.Alive && o.Finish > wantUB {
							wantUB = o.Finish
						}
					}
				}
				if ub, err := rep.UpperBound(); err != nil || ub != wantUB {
					t.Fatalf("%s: UpperBound %v (%v), reference last-arrival replay %v", label, ub, err, wantUB)
				}
			}
		}
	}
}

// TestReplayerReuseIsStateless replays crash/no-crash alternations on
// one Replayer and checks each result matches a fresh replay: no state
// may leak between replays of the same schedule.
func TestReplayerReuseIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := randomProblem(rng, 30, 5)
	s, err := core.Schedule(p, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		crashed := map[int]bool{i % 5: true, (i * 3) % 5: true}
		if i%4 == 0 {
			crashed = nil
		}
		got, err := rep.CrashLatency(crashed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mustReplayer(t, s).CrashLatency(crashed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("replay %d: reused %v vs fresh %v", i, got, want)
		}
	}
}

// replayBenchSchedule is the schedule BenchmarkReplay and
// TestReplayerAllocPin replay: CAFT at ε=3 on 100 tasks and 10
// processors, with P1 and P4 crashed.
func replayBenchSchedule(tb testing.TB) (*sched.Schedule, map[int]bool) {
	tb.Helper()
	rng := rand.New(rand.NewSource(6))
	p := randomProblem(rng, 100, 10)
	s, err := core.Schedule(p, 3, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return s, map[int]bool{1: true, 4: true}
}

// oneshotReplayAllocs bounds a fresh NewReplayer plus one CrashLatency
// on the replayBenchSchedule schedule, and oneshotTimedAllocs a fresh
// NewReplayer plus one CrashLatencyAt, which also builds the
// fault-free pass and its checkpoints: the maximum over 25 runs of the
// logged measurement (go test -count=25 -v -run TestReplayerAllocPin)
// when the pin was set.
const (
	oneshotReplayAllocs = 17
	oneshotTimedAllocs  = 37
)

// TestReplayerAllocPin pins the Replayer's allocation profile on the
// BenchmarkReplay schedule: steady-state CrashLatency and
// CrashLatencyAt allocate nothing, and one-shot replays (building the
// Replayer included) stay within oneshotReplayAllocs and
// oneshotTimedAllocs.
func TestReplayerAllocPin(t *testing.T) {
	s, crashed := replayBenchSchedule(t)
	rep := mustReplayer(t, s)
	h := s.MakespanAll()
	times := map[int]float64{1: h / 3, 4: h / 2}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { _, err = rep.CrashLatency(crashed) }); allocs != 0 {
		t.Errorf("steady-state CrashLatency allocates %.1f/op, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, err = rep.CrashLatencyAt(times) }); allocs != 0 {
		t.Errorf("steady-state CrashLatencyAt allocates %.1f/op, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		var r *Replayer
		if r, err = NewReplayer(s); err == nil {
			_, err = r.CrashLatency(crashed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one-shot NewReplayer+CrashLatency allocates %.0f/op", allocs)
	if allocs > oneshotReplayAllocs {
		t.Errorf("one-shot NewReplayer+CrashLatency allocates %.0f/op, want <= %d", allocs, oneshotReplayAllocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		var r *Replayer
		if r, err = NewReplayer(s); err == nil {
			_, err = r.CrashLatencyAt(times)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one-shot NewReplayer+CrashLatencyAt allocates %.0f/op", allocs)
	if allocs > oneshotTimedAllocs {
		t.Errorf("one-shot NewReplayer+CrashLatencyAt allocates %.0f/op, want <= %d", allocs, oneshotTimedAllocs)
	}
}

// BenchmarkReplay compares a one-shot replay (a fresh Replayer per
// call), the reused scratch-buffer Replayer, and the original map-based
// engine on the same crash replay; timed replays the same schedule
// with TestReplayerAllocPin's timed crashes through the reused
// Replayer.
func BenchmarkReplay(b *testing.B) {
	s, crashed := replayBenchSchedule(b)
	b.Run("map-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := refReplay(s, crashed, false)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Latency(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := NewReplayer(s)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rep.CrashLatency(crashed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		rep, err := NewReplayer(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rep.CrashLatency(crashed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("timed", func(b *testing.B) {
		rep, err := NewReplayer(s)
		if err != nil {
			b.Fatal(err)
		}
		h := s.MakespanAll()
		times := map[int]float64{1: h / 3, 4: h / 2}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rep.CrashLatencyAt(times); err != nil {
				b.Fatal(err)
			}
		}
	})
}
