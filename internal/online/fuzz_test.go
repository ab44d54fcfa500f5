package online

import (
	"fmt"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/sched"
	"caft/internal/sched/ftsa"
	"caft/internal/sched/heft"
	"caft/internal/sim/simtest"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// FuzzOnlineReschedule drives the reactive engine with fuzzer-chosen
// problems and crash sequences (processor, instant) and asserts the two
// safety properties of the tentpole: the executed outcome is
// validator-clean (precedence, crash deadlines, resource exclusivity on
// executed times, every non-lost task completed), and after the replay
// the engine's scheduler state equals a fresh rebuild of the schedule —
// its copy restore leaves no trace of cancellations and reactive
// placements. Every replay without re-mapping must also equal
// simtest.EventReplay of the same trace, the causal event process the
// Replayer's timed pass is pinned against. Every input runs on the clique, on a star, whose links
// are all port-implied, and on a 2×2 mesh, whose links are shared (see
// sched.Layout); each network draws its problem from a fresh rng
// seeded alike, so the clique case replays what the committed corpus
// always did.
func FuzzOnlineReschedule(f *testing.F) {
	star, err := topology.Star(4, 0.75)
	if err != nil {
		f.Fatal(err)
	}
	mesh, err := topology.Mesh2D(2, 2, 0.75)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{1, 0, 0, 1, 50, 2, 130})
	f.Add([]byte{3, 1, 1, 0, 0, 1, 0, 2, 0})
	f.Add([]byte{7, 2, 0, 3, 10, 3, 20, 2, 200})
	f.Add([]byte{11, 1, 0, 0, 90, 1, 90, 2, 90, 3, 90})
	f.Add([]byte{5, 0, 1, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		seed, alg, pol := int64(data[0]), data[1]%3, timeline.Policy(data[2]%2)
		for _, nc := range []struct {
			name string
			net  sched.Network
		}{{"clique", nil}, {"star", star}, {"mesh", mesh}} {
			rng := rand.New(rand.NewSource(seed))
			p := randomProblem(rng, 12+int(seed%8), 4, pol)
			p.Net = nc.net
			onlineRescheduleCase(t, nc.name, p, alg, rng, data[3:])
		}
	})
}

// onlineRescheduleCase is the body of FuzzOnlineReschedule on one
// problem over the named network: schedule p with algorithm alg, then
// replay the crash sequence data with and without re-mapping.
func onlineRescheduleCase(t *testing.T, net string, p *sched.Problem, alg byte, rng *rand.Rand, data []byte) {
	var s *sched.Schedule
	var err error
	switch alg {
	case 0:
		s, err = heft.Schedule(p, rng)
	case 1:
		s, err = ftsa.Schedule(p, 1, rng)
	default:
		s, err = core.Schedule(p, 1, rng)
	}
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
	h := 0.0
	for _, reps := range clean.Reps {
		for _, o := range reps {
			if o.Finish > h {
				h = o.Finish
			}
		}
	}
	trace := map[int]float64{}
	for len(data) >= 2 {
		proc := int(data[0]) % 4
		if _, ok := trace[proc]; !ok {
			// Instants span [0, ~1.3h]: mid-run crashes, boundary cases
			// at zero, and past-horizon no-ops.
			trace[proc] = float64(data[1]) / 200.0 * h
		}
		data = data[2:]
	}
	for _, opt := range []Options{{}, {Reschedule: true}} {
		res, err := e.Run(trace, opt)
		if err != nil {
			t.Fatalf("%s reschedule=%v trace=%v: %v", net, opt.Reschedule, trace, err)
		}
		if err := simtest.Validate(p, res, trace); err != nil {
			t.Fatalf("%s reschedule=%v trace=%v: %v", net, opt.Reschedule, trace, err)
		}
		if err := e.verifyPristine(); err != nil {
			t.Fatalf("%s reschedule=%v trace=%v: %v", net, opt.Reschedule, trace, err)
		}
		if !opt.Reschedule {
			ref, err := simtest.EventReplay(s, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: event replay: %v", net, trace, err)
			}
			sameOutcome(t, fmt.Sprintf("%s trace=%v", net, trace), res, ref)
		}
	}
}
