package sim_test

import (
	"errors"
	"math/rand"
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
