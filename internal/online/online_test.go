package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftsa"
	"caft/internal/sched/heft"
	"caft/internal/sim"
	"caft/internal/sim/simtest"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// randomProblem mirrors the sim test fixture: a random layered graph on
// m processors under the one-port model.
func randomProblem(rng *rand.Rand, v, m int, pol timeline.Policy) *sched.Problem {
	params := gen.RandomParams{MinTasks: v, MaxTasks: v, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol}
}

// horizonOf returns a time safely past every executed operation of a
// no-failure replay.
func horizonOf(t *testing.T, e *Engine) float64 {
	t.Helper()
	res, err := e.Run(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := 0.0
	for _, reps := range res.Reps {
		for _, o := range reps {
			if o.Finish > h {
				h = o.Finish
			}
		}
	}
	for _, o := range res.Comms {
		if o.Finish > h {
			h = o.Finish
		}
	}
	return h
}

// TestOnlineReactiveRecoversHEFT crashes processors under an
// unreplicated HEFT schedule: without rescheduling tasks are lost; with
// rescheduling every task completes, the output is validator-clean, the
// makespan never beats the fault-free run, and the engine state is
// pristine afterwards.
func TestOnlineReactiveRecoversHEFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		p := randomProblem(rng, 25+rng.Intn(10), 5, timeline.Policy(trial%2))
		s, err := heft.Schedule(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := e.Makespan(nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		trace := map[int]float64{
			rng.Intn(5): base * rng.Float64(),
			rng.Intn(5): base * rng.Float64(),
		}
		static, err := e.Run(trace, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := simtest.Validate(p, static, trace); err != nil {
			t.Fatalf("trial %d static: %v", trial, err)
		}
		reactive, err := e.Run(trace, Options{Reschedule: true})
		if err != nil {
			t.Fatalf("trial %d reactive: %v", trial, err)
		}
		if len(reactive.TasksLost) != 0 {
			t.Fatalf("trial %d: reactive replay lost tasks %v with %d of 5 processors crashed", trial, reactive.TasksLost, len(trace))
		}
		if len(static.TasksLost) > 0 && reactive.Rescheduled == 0 {
			t.Fatalf("trial %d: static run lost %d tasks but reactive run re-placed nothing", trial, len(static.TasksLost))
		}
		if err := simtest.Validate(p, reactive, trace); err != nil {
			t.Fatalf("trial %d reactive: %v", trial, err)
		}
		// Note: the reactive makespan may legitimately beat the
		// fault-free run — a crash frees a queued resource at tau, which
		// can pull later work earlier (DESIGN.md S7) — so only finiteness
		// is asserted here.
		if lat, err := reactive.Latency(); err != nil || math.IsInf(lat, 1) {
			t.Fatalf("trial %d: reactive latency %v (%v)", trial, lat, err)
		}
		if err := e.verifyPristine(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestOnlineCrashPastHorizon pins the boundary property: crashes
// strictly after every operation's finish must reproduce the
// no-failure replay bit for bit, rescheduling armed or not.
func TestOnlineCrashPastHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		p := randomProblem(rng, 30, 5, timeline.Append)
		s, err := ftsa.Schedule(p, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := e.Run(nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := horizonOf(t, e)
		trace := map[int]float64{}
		for proc := 0; proc < 5; proc++ {
			trace[proc] = h + 1 + float64(proc)
		}
		for _, opt := range []Options{{}, {Reschedule: true}} {
			got, err := e.Run(trace, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, "past-horizon", got, clean)
		}
	}
}

// TestOnlineScratchReuseMatchesFresh replays an interleaved sequence of
// traces on one engine and checks each result against a fresh engine:
// no state may leak between replays.
func TestOnlineScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := randomProblem(rng, 30, 5, timeline.Append)
	s, err := core.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	h := horizonOf(t, reused)
	for i := 0; i < 12; i++ {
		trace := map[int]float64{
			i % 5:       h * rng.Float64(),
			(i * 2) % 5: h * rng.Float64(),
		}
		if i%4 == 0 {
			trace = nil
		}
		opt := Options{Reschedule: i%2 == 0}
		got, err := reused.Run(trace, opt)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(trace, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, "reuse", got, want)
		if err := reused.verifyPristine(); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
}

// TestOnlineStaticDomination checks static domination (DESIGN.md S4)
// on sampled FTSA draws (ε 1–2, both reservation policies, 1–3 crashed
// processors): every replica or transfer of the ORIGINAL schedule that
// survives the crash set applied from the start (sim.Replayer.Replay)
// also survives the same processors crashing at sampled instants, with
// re-mapping off and on. Such an op touches no crashed processor and,
// by induction in placement order, keeps a live input. No superset
// property is asserted: adding crashes or moving them earlier can
// revive an op (the crash-time anomaly of DESIGN.md S4, sim's
// TestTimedCrashTimeAnomaly, which the engine reproduces with
// re-mapping off).
func TestOnlineStaticDomination(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 16; trial++ {
		eps, pol := 1+trial%2, timeline.Policy(trial/2%2)
		p := randomProblem(rng, 30, 6, pol)
		s, err := ftsa.Schedule(p, eps, rng)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.NewReplayer(s)
		if err != nil {
			t.Fatal(err)
		}
		h := horizonOf(t, e)
		for draw := 0; draw < 150; draw++ {
			set := map[int]bool{}
			trace := map[int]float64{}
			for n := 1 + rng.Intn(3); len(set) < n; {
				proc := rng.Intn(6)
				set[proc] = true
				trace[proc] = rng.Float64() * 1.2 * h
			}
			static := rep.Replay(set)
			for _, opt := range []Options{{}, {Reschedule: true}} {
				timed, err := e.Run(trace, opt)
				if err != nil {
					t.Fatal(err)
				}
				for task := range static.Reps {
					for i, r := range static.Reps[task] {
						if r.Alive && !timed.Reps[task][i].Alive {
							t.Fatalf("trial %d draw %d (reschedule=%v): replica (%d,%d) survives the static crash of %v but dies under %v",
								trial, draw, opt.Reschedule, task, r.Rep.Copy, set, trace)
						}
					}
				}
				for i, c := range static.Comms {
					if c.Alive && !timed.Comms[i].Alive {
						t.Fatalf("trial %d draw %d (reschedule=%v): comm %d survives the static crash of %v but dies under %v",
							trial, draw, opt.Reschedule, i, set, trace)
					}
				}
			}
		}
	}
}

// TestOnlineStaticLossMatchesTimedSim spot-checks the static
// (no-reschedule) mode against replayed intuition: a processor crash at
// time zero on an eps=1 schedule never loses a task, and crashing every
// processor at zero loses everything.
func TestOnlineStaticLossMatchesTimedSim(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomProblem(rng, 25, 5, timeline.Append)
	s, err := ftsa.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < 5; proc++ {
		res, err := e.Run(map[int]float64{proc: 0}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TasksLost) != 0 {
			t.Fatalf("single crash@0 on P%d lost tasks %v from an eps=1 schedule", proc, res.TasksLost)
		}
		if err := simtest.Validate(p, res, map[int]float64{proc: 0}); err != nil {
			t.Fatal(err)
		}
	}
	all := map[int]float64{}
	for proc := 0; proc < 5; proc++ {
		all[proc] = 0
	}
	_, _, err = e.Makespan(all, Options{Reschedule: true})
	if err == nil || !errors.Is(err, sim.ErrTaskLost) {
		t.Fatalf("crashing every processor reported %v, want ErrTaskLost", err)
	}
}

// TestNaNCrashInstantRejected pins that both replay engines refuse a
// NaN crash instant instead of answering: ordering comparisons with NaN
// are all false, so the Replayer used to treat the processor as never
// crashing while the engine lost a task. Every timed entry point of
// both engines must return an error that is not a task loss.
func TestNaNCrashInstantRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 100, 10, timeline.Append)
	s, err := core.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewReplayer(s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, trace := range []map[int]float64{{0: nan, 1: nan}, {3: 5, 7: nan}} {
		check := func(what string, got float64, err error) {
			t.Helper()
			if err == nil || errors.Is(err, sim.ErrTaskLost) {
				t.Errorf("%s(%v) = %v, %v; want a NaN rejection", what, trace, got, err)
			}
		}
		lat, err := r.CrashLatencyAt(trace)
		check("Replayer.CrashLatencyAt", lat, err)
		for _, opt := range []Options{{}, {Reschedule: true}} {
			lat, _, err := e.Makespan(trace, opt)
			check(fmt.Sprintf("Engine.Makespan[%+v]", opt), lat, err)
			_, err = e.Run(trace, opt)
			check(fmt.Sprintf("Engine.Run[%+v]", opt), 0, err)
		}
	}
	// The engines still answer afterwards.
	if _, err := r.CrashLatencyAt(map[int]float64{0: 0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Makespan(map[int]float64{0: 0}, Options{Reschedule: true}); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineMakespanMatchesRun pins the alloc-free Makespan entry point
// to the materializing Run path.
func TestOnlineMakespanMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	p := randomProblem(rng, 25, 5, timeline.Append)
	s, err := heft.Schedule(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	h := horizonOf(t, e)
	for draw := 0; draw < 8; draw++ {
		trace := map[int]float64{draw % 5: h * rng.Float64()}
		res, err := e.Run(trace, Options{Reschedule: true})
		if err != nil {
			t.Fatal(err)
		}
		wantLat, wantErr := res.Latency()
		lat, resched, err := e.Makespan(trace, Options{Reschedule: true})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("draw %d: Makespan err %v, Run err %v", draw, err, wantErr)
		}
		if err == nil && (lat != wantLat || resched != res.Rescheduled) {
			t.Fatalf("draw %d: Makespan (%v, %d) vs Run (%v, %d)", draw, lat, resched, wantLat, res.Rescheduled)
		}
	}
}

// sameOutcome asserts two online results are bit-identical.
func sameOutcome(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if got.Rescheduled != want.Rescheduled || len(got.TasksLost) != len(want.TasksLost) {
		t.Fatalf("%s: rescheduled/lost mismatch: (%d,%v) vs (%d,%v)", label, got.Rescheduled, got.TasksLost, want.Rescheduled, want.TasksLost)
	}
	for i := range want.TasksLost {
		if got.TasksLost[i] != want.TasksLost[i] {
			t.Fatalf("%s: lost %v vs %v", label, got.TasksLost, want.TasksLost)
		}
	}
	if len(got.Reps) != len(want.Reps) || len(got.Comms) != len(want.Comms) {
		t.Fatalf("%s: shape mismatch", label)
	}
	for task := range want.Reps {
		if len(got.Reps[task]) != len(want.Reps[task]) {
			t.Fatalf("%s: task %d replica count %d vs %d", label, task, len(got.Reps[task]), len(want.Reps[task]))
		}
		for i, w := range want.Reps[task] {
			if g := got.Reps[task][i]; g != w {
				t.Fatalf("%s: replica (%d,#%d): %+v vs %+v", label, task, i, g, w)
			}
		}
	}
	for i, w := range want.Comms {
		if g := got.Comms[i]; g != w {
			t.Fatalf("%s: comm %d: %+v vs %+v", label, i, g, w)
		}
	}
}

// TestOnlineEventAllocPin pins the steady-state engine: after warm-up,
// a full replay through the alloc-free Makespan entry point — every
// Replayer pass, cancellation, reactive placement and state restore
// included — allocates nothing, both without crashes and on a
// two-crash trace whose re-mapper cancels and re-places work.
func TestOnlineEventAllocPin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := randomProblem(rng, 40, 6, timeline.Append)
	s, err := ftsa.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Reschedule: true}
	if _, _, err := e.Makespan(nil, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := e.Makespan(nil, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state online replay allocates %.1f/op, want 0", allocs)
	}
	h := horizonOf(t, e)
	trace := map[int]float64{2: h / 3, 4: h / 2}
	_, resched, err := e.Makespan(trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resched == 0 {
		t.Fatal("crash trace triggered no reactive placement")
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, _, err := e.Makespan(trace, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state crash replay allocates %.1f/op, want 0", allocs)
	}
}

// TestNewEngineAllocPin pins the one-shot cost of building an engine
// (rebuilt scheduler state, wiring and Replayer) on a CAFT ε=1
// schedule of 100 tasks on 10 processors, over the clique and a 2×5
// mesh. Each bound is the maximum over 25 runs of the logged
// measurement (go test -count=25 -v -run TestNewEngineAllocPin) when
// the pin was set.
func TestNewEngineAllocPin(t *testing.T) {
	mesh, err := topology.Mesh2D(2, 5, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		net   sched.Network
		bound float64
	}{
		{"clique", nil, 315},
		{"mesh", mesh, 370},
	} {
		rng := rand.New(rand.NewSource(6))
		p := randomProblem(rng, 100, 10, timeline.Append)
		p.Net = c.net
		s, err := core.Schedule(p, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err = NewEngine(s); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: one-shot NewEngine allocates %.0f/op", c.name, allocs)
		if allocs > c.bound {
			t.Errorf("%s: one-shot NewEngine allocates %.0f/op, want <= %.0f", c.name, allocs, c.bound)
		}
	}
}
