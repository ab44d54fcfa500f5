package sim_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"caft/internal/core"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftbar"
	"caft/internal/sched/ftsa"
	"caft/internal/sim"
	"caft/internal/sim/simtest"
	"caft/internal/timeline"
)

// TestReplaysPassOracle runs the executed-schedule oracle over
// clairvoyant replays of CAFT, FTSA and FTBAR schedules: timed replays
// of random traces (crash instants spanning before, during and past the
// run, up to m-1 crashed processors, so beyond ε too), and static
// replays of the same crash sets checked as the trace with every crash
// at 0. Precedence, crash deadlines, endpoints and resource
// exclusivity, on every link of every route, must hold on the replayed
// times, on each of sim.WitnessNets.
func TestReplaysPassOracle(t *testing.T) {
	const m = 5
	for _, nc := range sim.WitnessNets(t, m) {
		replaysPassOracle(t, nc.Name, nc.Net, m)
	}
}

// replaysPassOracle is TestReplaysPassOracle on one network.
func replaysPassOracle(t *testing.T, name string, net sched.Network, m int) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		params := gen.RandomParams{MinTasks: 25, MaxTasks: 40, MinDegree: 1, MaxDegree: 3, MinVolume: 5, MaxVolume: 15}
		g := gen.RandomLayered(rng, params)
		plat := platform.NewRandom(rng, m, 0.5, 1.0)
		exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
		p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Policy(trial % 2), Net: net}
		eps := 1 + trial/2
		for si, build := range []func() (*sched.Schedule, error){
			func() (*sched.Schedule, error) { return core.Schedule(p, eps, rng) },
			func() (*sched.Schedule, error) { return ftsa.Schedule(p, eps, rng) },
			func() (*sched.Schedule, error) { return ftbar.Schedule(p, eps, rng) },
		} {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sim.NewReplayer(s)
			if err != nil {
				t.Fatal(err)
			}
			horizon := s.MakespanAll()
			for draw := 0; draw < 25; draw++ {
				trace, atZero := map[int]float64{}, map[int]float64{}
				crashed := map[int]bool{}
				for n := 1 + rng.Intn(m-1); len(trace) < n; {
					proc := rng.Intn(m)
					trace[proc] = rng.Float64() * 1.2 * horizon
					atZero[proc] = 0
					crashed[proc] = true
				}
				if _, err := rep.CrashLatencyAt(trace); err != nil && !errors.Is(err, sim.ErrTaskLost) {
					t.Fatal(err)
				}
				timed := rep.Result()
				if err := simtest.Validate(p, timed, trace); err != nil {
					t.Fatalf("%s trial %d schedule %d timed %v: %v", name, trial, si, trace, err)
				}
				if err := simtest.Validate(p, rep.Replay(crashed), atZero); err != nil {
					t.Fatalf("%s trial %d schedule %d static %v: %v", name, trial, si, crashed, err)
				}
			}
		}
	}
}

// FuzzValidatorMatchesOracle shifts one replica or transfer of a CAFT,
// FTSA or FTBAR schedule by a delta that keeps its duration, and
// requires sched.Validator to accept the result exactly when
// simtest.Validate accepts its times as a crash-free executed replay.
// The Validator checks only the resources of the problem's sched.Layout
// and simtest every link of every route, so this pins that a
// port-implied link never holds an overlap its port does not (DESIGN.md
// S1). seed seeds the problem; cfg picks one of sim.WitnessNets, the
// scheduler, the policy and the model; pick picks the shifted op. With
// mode%3 == 0, or when no other op shares a resource with it, the delta
// is off/128 of the makespan; otherwise it lines the op's start up with
// the finish of neighbour nb (mode%3 == 1), or its finish with that
// neighbour's start, then moves it off%5 half-Eps further.
func FuzzValidatorMatchesOracle(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint16(3), uint16(0), uint8(0), int8(5))
	f.Add(uint8(2), uint8(2), uint16(40), uint16(1), uint8(1), int8(0))
	f.Add(uint8(3), uint8(11), uint16(25), uint16(2), uint8(2), int8(-2))
	f.Add(uint8(4), uint8(23), uint16(7), uint16(5), uint8(1), int8(-4))
	f.Fuzz(func(t *testing.T, seed, cfg uint8, pick, nb uint16, mode uint8, off int8) {
		verdict, oracle := shiftAndValidate(t, seed, cfg, pick, nb, mode, off)
		if (verdict == nil) != (oracle == nil) {
			t.Fatalf("sched.Validator: %v\nsimtest.Validate: %v", verdict, oracle)
		}
	})
}

// shiftAndValidate builds the schedule FuzzValidatorMatchesOracle's
// inputs name, shifts one of its ops and returns the verdicts of
// sched.Validator and simtest.Validate on the result.
func shiftAndValidate(t *testing.T, seed, cfg uint8, pick, nb uint16, mode uint8, off int8) (verdict, oracle error) {
	t.Helper()
	const m = 4
	nc := sim.WitnessNets(t, m)[cfg%3]
	rng := rand.New(rand.NewSource(int64(seed)))
	params := gen.RandomParams{MinTasks: 6, MaxTasks: 14, MinDegree: 1, MaxDegree: 3, MinVolume: 5, MaxVolume: 15}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.Model(cfg / 18 % 2), Policy: timeline.Policy(cfg / 9 % 2), Net: nc.Net}
	build := []func(*sched.Problem, int, *rand.Rand) (*sched.Schedule, error){core.Schedule, ftsa.Schedule, ftbar.Schedule}[cfg/3%3]
	s, err := build(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	v := sched.NewValidator()
	if err := v.Validate(s); err != nil {
		t.Fatalf("%s: unshifted schedule rejected: %v", nc.Name, err)
	}

	// Every op with the resources it holds under the one-port model, on
	// every link of the route: compute q, send port m+q, receive port
	// 2m+q, link 3m+k.
	type span struct {
		start, finish *float64
		res           []int
	}
	var spans []span
	for task := range s.Reps {
		for k := range s.Reps[task] {
			r := &s.Reps[task][k]
			spans = append(spans, span{&r.Start, &r.Finish, []int{r.Proc}})
		}
	}
	net := p.Network()
	for i := range s.Comms {
		c := &s.Comms[i]
		var res []int
		if !c.Intra {
			res = append(res, m+c.SrcProc, 2*m+c.DstProc)
			for _, k := range net.Route(c.SrcProc, c.DstProc) {
				res = append(res, 3*m+k)
			}
		}
		spans = append(spans, span{&c.Start, &c.Finish, res})
	}
	mv := spans[int(pick)%len(spans)]
	var near []span
	for _, o := range spans {
		if o.start != mv.start && slices.ContainsFunc(o.res, func(k int) bool { return slices.Contains(mv.res, k) }) {
			near = append(near, o)
		}
	}
	delta := float64(off) / 128 * s.MakespanAll()
	if mode%3 != 0 && len(near) > 0 {
		o, edge := near[int(nb)%len(near)], float64(off%5)*sched.Eps/2
		if mode%3 == 1 {
			delta = *o.finish - *mv.start + edge
		} else {
			delta = *o.start - *mv.finish + edge
		}
	}
	*mv.start += delta
	*mv.finish += delta

	res := &sim.Result{Reps: make([][]sim.RepOutcome, len(s.Reps))}
	for task, reps := range s.Reps {
		for _, r := range reps {
			res.Reps[task] = append(res.Reps[task], sim.RepOutcome{Rep: r, Fate: sim.Fate{Alive: true, Start: r.Start, Finish: r.Finish}})
		}
	}
	for _, c := range s.Comms {
		res.Comms = append(res.Comms, sim.CommOutcome{Comm: c, Fate: sim.Fate{Alive: true, Start: c.Start, Finish: c.Finish}})
	}
	return v.Validate(s), simtest.Validate(p, res, nil)
}
