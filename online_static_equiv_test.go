package caft

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/failure"
	"caft/internal/gen"
	"caft/internal/online"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/sim/simtest"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// TestOnlineStaticEquivalence is the differential pin of the
// clairvoyant sim.Replayer against simtest.EventReplay, a causal event
// process over the same op table, for every registered scheduler (plus
// CAFT's batched variant) under both reservation policies, on the
// clique, a star, a 2×3 mesh and one macro-dataflow problem. Three
// inputs must replay bit for bit alike:
//
//   - an EMPTY failure trace, through EventReplay and through the
//     online engine with its reactive re-mapper armed, against the
//     no-crash static replay;
//   - crashes at τ=0 of every single processor and every pair, through
//     EventReplay, against the static replay of the same crash set;
//   - timed traces (see timedTraces), through EventReplay, against
//     Replayer.CrashLatencyAt of the same trace, read through Result.
//
// "Alike" means the same lost tasks and the same fate — liveness,
// start and finish — for every replica and communication. The two
// evaluate in different orders — the Replayer in one forward pass in
// placement order, EventReplay by discharging constraints from a
// time-ordered completion heap with tokens handed along each
// resource's members — so agreement pins the replay semantics
// (DESIGN.md S4) to the causal one (S7). Every timed trace is also
// checked for static domination: no operation dies under the timed
// crash of a processor set that the static crash of the same set
// spares. The map engine of internal/sim/reference_test.go stays the
// independent oracle for the wiring itself.
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
	star, err := topology.Star(m, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.Mesh2D(2, 3, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	type setup struct {
		name  string
		net   sched.Network
		model sched.Model
		pol   timeline.Policy
		seeds int64
	}
	setups := []setup{
		{"clique", nil, sched.OnePort, timeline.Append, 10},
		{"clique", nil, sched.OnePort, timeline.Insertion, 10},
		{"star", star, sched.OnePort, timeline.Append, 2},
		{"star", star, sched.OnePort, timeline.Insertion, 2},
		{"mesh", mesh, sched.OnePort, timeline.Append, 2},
		{"mesh", mesh, sched.OnePort, timeline.Insertion, 2},
		{"macro", nil, sched.MacroDataflow, timeline.Append, 2},
	}
	for _, su := range setups {
		for seed := int64(1); seed <= su.seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			params := gen.RandomParams{MinTasks: 30, MaxTasks: 40, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
			g := gen.RandomLayered(rng, params)
			plat := platform.NewRandom(rng, m, 0.5, 1.0)
			exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
			for _, s := range schedulers {
				label := fmt.Sprintf("%s/%s/%v/seed%d", s.name, su.name, su.pol, seed)
				p := sched.Problem{G: g, Plat: plat, Exec: exec, Model: su.model, Policy: su.pol, Net: su.net}
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
				got, err := eng.Run(nil, online.Options{Reschedule: true})
				if err != nil {
					t.Fatalf("%s online: %v", label, err)
				}
				compareToReplayer(t, label, got, want)
				compareToReplayer(t, label, eventReplay(t, label, schedule, nil), want)
				for _, crashed := range crashSets {
					clabel := fmt.Sprintf("%s/crash%v", label, crashed)
					want := rep.Replay(crashed)
					trace := map[int]float64{}
					for proc := range crashed {
						trace[proc] = 0
					}
					compareToReplayer(t, clabel, eventReplay(t, clabel, schedule, trace), want)
				}
				for _, trace := range timedTraces(want, m, seed) {
					tlabel := fmt.Sprintf("%s/timed%v", label, trace)
					if _, err := rep.CrashLatencyAt(trace); err != nil && !errors.Is(err, sim.ErrTaskLost) {
						t.Fatalf("%s replay: %v", tlabel, err)
					}
					timed := rep.Result()
					compareToReplayer(t, tlabel, eventReplay(t, tlabel, schedule, trace), timed)
					crashed := map[int]bool{}
					for proc := range trace {
						crashed[proc] = true
					}
					assertDominated(t, tlabel, timed, rep.Replay(crashed))
				}
			}
		}
	}
}

// timedTraces returns the timed failure traces replayed against a
// schedule whose fault-free replay is clean, on m processors:
// exponential draws with a mean lifetime of twice the fault-free
// makespan, and, for every fifth replica, its processor crashing at
// the replica's fault-free finish f, at f ± sched.Eps and at
// f + 2·sched.Eps, plus that processor and the next one crashing
// together at f.
func timedTraces(clean *sim.Result, m int, seed int64) []map[int]float64 {
	var traces []map[int]float64
	horizon, _ := clean.Latency()
	mtbf := make([]float64, m)
	for p := range mtbf {
		mtbf[p] = 2 * horizon
	}
	model := &failure.Exponential{MTBF: mtbf}
	rng := rand.New(rand.NewSource(seed))
	for draw := 0; draw < 16; draw++ {
		traces = append(traces, model.Sample(rng, nil))
	}
	k := 0
	for _, reps := range clean.Reps {
		for _, o := range reps {
			if k++; k%5 != 0 {
				continue
			}
			p, f := o.Rep.Proc, o.Finish
			for _, tau := range []float64{f - sched.Eps, f, f + sched.Eps, f + 2*sched.Eps} {
				traces = append(traces, map[int]float64{p: tau})
			}
			traces = append(traces, map[int]float64{p: f, (p + 1) % m: f})
		}
	}
	return traces
}

// assertDominated asserts static domination: every replica and
// communication alive under a static crash set is alive under a timed
// crash of the same set.
func assertDominated(t *testing.T, label string, timed, static *sim.Result) {
	t.Helper()
	for task := range static.Reps {
		for i, s := range static.Reps[task] {
			if s.Alive && !timed.Reps[task][i].Alive {
				t.Fatalf("%s: replica (%d,%d) dies under the timed crash but survives the static one", label, task, s.Rep.Copy)
			}
		}
	}
	for i, s := range static.Comms {
		if s.Alive && !timed.Comms[i].Alive {
			t.Fatalf("%s: comm %d dies under the timed crash but survives the static one", label, i)
		}
	}
}

// eventReplay runs simtest.EventReplay, failing the test on an error.
func eventReplay(t *testing.T, label string, s *sched.Schedule, trace map[int]float64) *sim.Result {
	t.Helper()
	res, err := simtest.EventReplay(s, trace)
	if err != nil {
		t.Fatalf("%s event replay: %v", label, err)
	}
	return res
}

// compareToReplayer asserts a result without reactive placements is
// bit-identical to a clairvoyant replay result (static or timed): the
// same lost tasks and the same fate for every operation, dead ones
// included (zero times).
func compareToReplayer(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if got.Rescheduled != 0 {
		t.Fatalf("%s: %d reactive placements", label, got.Rescheduled)
	}
	if fmt.Sprint(got.TasksLost) != fmt.Sprint(want.TasksLost) {
		t.Fatalf("%s: lost tasks: got %v, replayer %v", label, got.TasksLost, want.TasksLost)
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
			if g != w {
				t.Fatalf("%s: replica (%d,%d): got {alive %v [%v,%v)}, replayer {alive %v [%v,%v)}",
					label, task, w.Rep.Copy, g.Alive, g.Start, g.Finish, w.Alive, w.Start, w.Finish)
			}
		}
	}
	for i, w := range want.Comms {
		g := got.Comms[i]
		if g != w {
			t.Fatalf("%s: comm %d: got {alive %v [%v,%v)}, replayer {alive %v [%v,%v)}",
				label, i, g.Alive, g.Start, g.Finish, w.Alive, w.Start, w.Finish)
		}
	}
}
