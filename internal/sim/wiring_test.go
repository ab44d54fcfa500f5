package sim

import (
	"errors"
	"testing"

	"caft/internal/gen"
	"caft/internal/sched"
)

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
