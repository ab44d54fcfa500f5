package sim

import (
	"errors"
	"math/rand"
	"testing"
	"unsafe"

	"caft/internal/core"
	"caft/internal/gen"
	"caft/internal/sched"
	"caft/internal/topology"
)

// WitnessNet is one network the replay witnesses run on; a nil Net is
// the clique.
type WitnessNet struct {
	Name string
	Net  sched.Network
}

// WitnessNets returns the networks over m processors that the replay
// witnesses (TestReplayerMatchesReference, TestReplaysPassOracle) run
// on: the clique, a star, whose links are all port-implied, and a 1×m
// mesh, whose inner links carry transfers from several senders to
// several receivers and so are shared (see sched.Layout).
func WitnessNets(tb testing.TB, m int) []WitnessNet {
	tb.Helper()
	star, err := topology.Star(m, 0.75)
	if err != nil {
		tb.Fatal(err)
	}
	mesh, err := topology.Mesh2D(1, m, 0.75)
	if err != nil {
		tb.Fatal(err)
	}
	return []WitnessNet{{"clique", nil}, {"star", star}, {"mesh", mesh}}
}

// TestWiringMatchesStateLayout pins the replay wiring to the scheduler's
// resource layout: a wiring numbers exactly one resource per State
// timeline, 3m on the clique and the star and 3m+4 on the 1×5 mesh
// (the two inner links in each direction are shared).
func TestWiringMatchesStateLayout(t *testing.T) {
	const m = 5
	want := map[string]int{"clique": 3 * m, "star": 3 * m, "mesh": 3*m + 4}
	for _, nc := range WitnessNets(t, m) {
		rng := rand.New(rand.NewSource(3))
		p := randomProblem(rng, 20, m)
		p.Net = nc.Net
		s, err := core.Schedule(p, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sched.StateOf(s)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWiring(s, st.Layout())
		if err != nil {
			t.Fatal(err)
		}
		if got, tls := w.NumRes(), st.NumTimelines(); got != want[nc.Name] || tls != got {
			t.Errorf("%s: wiring holds %d resources, state %d timelines, want %d", nc.Name, got, tls, want[nc.Name])
		}
	}
}

// chainSchedule places a two-task chain t0 -> t1 with one replica each
// on P0 and P1, so the schedule holds one remote transfer placed
// between its source and destination replicas.
func chainSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	st := sched.NewState(prob(gen.Chain(2, 5), 2, 2))
	r0, err := st.PlaceReplica(0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PlaceReplica(1, 0, 1, []sched.SourceSet{{Pred: 0, Volume: 5, Sources: []sched.Replica{r0}}}); err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if len(s.Comms) != 1 || s.Comms[0].Intra {
		t.Fatalf("want one remote transfer, got %+v", s.Comms)
	}
	return s
}

// TestWiringRejectsLaterPlacedConstraint moves the transfer's placement
// sequence past its destination replica, then before its source
// replica: either way a constraint points to a later-placed operation,
// which the placement-order pass cannot evaluate, so the schedule is
// rejected with ErrPlacementOrder instead of replayed to a wrong
// latency.
func TestWiringRejectsLaterPlacedConstraint(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  func(s *sched.Schedule) int32
	}{
		{"comm after destination", func(s *sched.Schedule) int32 { return s.Reps[1][0].Seq + 1 }},
		{"comm before source", func(s *sched.Schedule) int32 { return s.Reps[0][0].Seq - 1 }},
	} {
		s := chainSchedule(t)
		if _, err := NewReplayer(s); err != nil {
			t.Fatalf("%s: well-ordered schedule rejected: %v", tc.name, err)
		}
		s.Comms[0].Seq = tc.seq(s)
		if _, err := NewReplayer(s); !errors.Is(err, ErrPlacementOrder) {
			t.Fatalf("%s: NewReplayer = %v, want ErrPlacementOrder", tc.name, err)
		}
	}
}

// TestWiringRejectsMissingReplica pins the malformed-input policy: a
// transfer naming a replica the schedule does not hold is rejected, as
// online.NewEngine rejects it, not replayed as a dead transfer.
func TestWiringRejectsMissingReplica(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *sched.Comm)
	}{
		{"missing source", func(c *sched.Comm) { c.SrcCopy = 3 }},
		{"missing destination", func(c *sched.Comm) { c.DstCopy = 3 }},
	} {
		s := chainSchedule(t)
		tc.mutate(&s.Comms[0])
		if _, err := NewReplayer(s); err == nil {
			t.Fatalf("%s: NewReplayer accepted the schedule", tc.name)
		}
	}
}

// TestOpSize pins sim.Op at 64 bytes: every replay pass walks the op
// table front to back, and the replica and transfer records the ops
// stand for stay in Wiring.Reps and Wiring.Comms, out of that table.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got > 64 {
		t.Fatalf("sim.Op is %d bytes, want at most 64", got)
	}
}
