package caft

import (
	"fmt"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/gen"
	"caft/internal/online"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/timeline"
)

// TestOnlineStaticEquivalence is the differential pin of the online
// event-driven engine against the clairvoyant sim.Replayer, for every
// registered scheduler (plus CAFT's batched variant) under both
// reservation policies. Two inputs must replay bit for bit alike:
//
//   - an EMPTY failure trace, with and without the reactive re-mapper
//     armed, against the no-crash static replay;
//   - crashes at τ=0 of every single processor and every pair, with the
//     re-mapper off, against the static replay of the same crash set.
//
// "Alike" means the same lost tasks, the same liveness for every
// replica and communication, and the same start and finish for every
// surviving one. Both engines evaluate the same sim.Wiring, but in
// different orders — sim in one forward pass in placement order, the
// online engine by discharging constraints from a time-ordered event
// heap — so agreement pins the event semantics (DESIGN.md S7) to the
// established replay semantics. The map engine of
// internal/sim/reference_test.go stays the independent oracle for the
// wiring itself.
func TestOnlineStaticEquivalence(t *testing.T) {
	type scheduler struct {
		name string
		run  func(p *sched.Problem) (*sched.Schedule, error)
	}
	schedulers := []scheduler{{"caft-batch", func(p *sched.Problem) (*sched.Schedule, error) {
		return core.ScheduleBatch(p, 1, 4, rand.New(rand.NewSource(7)))
	}}}
	for _, d := range sched.Registered() {
		eps := 0
		if d.Caps.AcceptsEps {
			eps = 2
		}
		schedulers = append(schedulers, scheduler{d.Name, func(p *sched.Problem) (*sched.Schedule, error) {
			if !d.Caps.Supports(p.Policy) {
				return nil, nil
			}
			return d.New(p, eps, rand.New(rand.NewSource(7)))
		}})
	}
	const m = 6
	var crashSets []map[int]bool
	for a := 0; a < m; a++ {
		crashSets = append(crashSets, map[int]bool{a: true})
		for b := a + 1; b < m; b++ {
			crashSets = append(crashSets, map[int]bool{a: true, b: true})
		}
	}
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			params := gen.RandomParams{MinTasks: 30, MaxTasks: 40, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
			g := gen.RandomLayered(rng, params)
			plat := platform.NewRandom(rng, m, 0.5, 1.0)
			exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
			for _, s := range schedulers {
				label := fmt.Sprintf("%s/%v/seed%d", s.name, pol, seed)
				p := sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol}
				schedule, err := s.run(&p)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if schedule == nil {
					continue // policy not supported
				}
				rep, err := sim.NewReplayer(schedule)
				if err != nil {
					t.Fatalf("%s replayer: %v", label, err)
				}
				eng, err := online.NewEngine(schedule)
				if err != nil {
					t.Fatalf("%s engine: %v", label, err)
				}
				want := rep.Replay(nil)
				if len(want.TasksLost) != 0 {
					t.Fatalf("%s: lost tasks %v in a no-failure replay", label, want.TasksLost)
				}
				for _, opt := range []online.Options{{}, {Reschedule: true}} {
					got, err := eng.Run(nil, opt)
					if err != nil {
						t.Fatalf("%s online (reschedule=%v): %v", label, opt.Reschedule, err)
					}
					compareOnlineToStatic(t, label, got, want)
				}
				for _, crashed := range crashSets {
					clabel := fmt.Sprintf("%s/crash%v", label, crashed)
					want := rep.Replay(crashed)
					trace := map[int]float64{}
					for proc := range crashed {
						trace[proc] = 0
					}
					got, err := eng.Run(trace, online.Options{})
					if err != nil {
						t.Fatalf("%s online: %v", clabel, err)
					}
					compareOnlineToStatic(t, clabel, got, want)
				}
			}
		}
	}
}

// compareOnlineToStatic asserts an online result without reactive
// placements is bit-identical to a static replay result in every
// outcome the two engines share: lost tasks, liveness, and the start
// and finish of every surviving operation. Dead operations are not
// timed alike — the online engine records an attempt aborted by a crash,
// the static replay reports zero — so their times are not compared.
func compareOnlineToStatic(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if got.Rescheduled != 0 {
		t.Fatalf("%s: %d reactive placements", label, got.Rescheduled)
	}
	if fmt.Sprint(got.TasksLost) != fmt.Sprint(want.TasksLost) {
		t.Fatalf("%s: lost tasks: online %v, static %v", label, got.TasksLost, want.TasksLost)
	}
	if len(got.Reps) != len(want.Reps) || len(got.Comms) != len(want.Comms) {
		t.Fatalf("%s: shape mismatch", label)
	}
	for task := range want.Reps {
		if len(got.Reps[task]) != len(want.Reps[task]) {
			t.Fatalf("%s: task %d replica count %d vs %d", label, task, len(got.Reps[task]), len(want.Reps[task]))
		}
		for i, w := range want.Reps[task] {
			g := got.Reps[task][i]
			if g.Rep != w.Rep || g.Alive != w.Alive || w.Alive && (g.Start != w.Start || g.Finish != w.Finish) {
				t.Fatalf("%s: replica (%d,%d): online {alive %v [%v,%v)}, static {alive %v [%v,%v)}",
					label, task, w.Rep.Copy, g.Alive, g.Start, g.Finish, w.Alive, w.Start, w.Finish)
			}
		}
	}
	for i, w := range want.Comms {
		g := got.Comms[i]
		if g.Comm != w.Comm || g.Alive != w.Alive || w.Alive && (g.Start != w.Start || g.Finish != w.Finish) {
			t.Fatalf("%s: comm %d: online {alive %v [%v,%v)}, static {alive %v [%v,%v)}",
				label, i, g.Alive, g.Start, g.Finish, w.Alive, w.Start, w.Finish)
		}
	}
}
