package online

import (
	"fmt"
	"math/rand"
	"testing"

	"caft/internal/sched"
	_ "caft/internal/sched/all" // every registered scheduler
	"caft/internal/sim"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// TestWiringPlacementOrder pins sim.Wiring's op table to placement
// order on the schedules of every registered scheduler, under Append
// and Insertion, on the networks the sim package's replay witnesses run
// on (the clique, a star and a 1×m mesh): the ops' records have
// non-decreasing Seq, every constraint of an op has a smaller op index,
// and Result lists each task's replicas and the transfers in
// Schedule.Reps and Schedule.Comms order. It checks the same after a
// re-mapping replay, whose reactive placements form the wiring's suffix
// and follow the schedule's records in Result.
func TestWiringPlacementOrder(t *testing.T) {
	const m = 5
	star, err := topology.Star(m, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.Mesh2D(1, m, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	remapped := 0
	for ni, net := range []sched.Network{nil, star, mesh} {
		for _, d := range sched.Registered() {
			for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
				if !d.Caps.Supports(pol) {
					continue
				}
				label := fmt.Sprintf("net %d %s policy %d", ni, d.Name, pol)
				rng := rand.New(rand.NewSource(int64(7 + ni)))
				p := randomProblem(rng, 30, m, pol)
				p.Net = net
				eps := 0
				if d.Caps.AcceptsEps {
					eps = 1
				}
				s, err := d.New(p, eps, rng)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				e, err := NewEngine(s)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkPlacementOrder(t, label, e.w)
				res, err := e.Run(nil, Options{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkResultOrder(t, label, s, res)

				h := horizonOf(t, e)
				trace := map[int]float64{0: h / 4, 2: h / 2}
				if res, err = e.Run(trace, Options{Reschedule: true}); err != nil {
					t.Fatalf("%s remapped: %v", label, err)
				}
				remapped += res.Rescheduled
				checkPlacementOrder(t, label+" remapped", e.w)
				checkResultOrder(t, label+" remapped", s, res)
			}
		}
	}
	if remapped == 0 {
		t.Fatal("no replay re-placed a task: the reactive suffix went unchecked")
	}
}

// checkPlacementOrder fails unless the records of w's ops have
// non-decreasing Seq and every constraint of an op has a smaller op
// index: a transfer's source replica, the transfers feeding a replica's
// input slots, and each resource's previous member.
func checkPlacementOrder(t *testing.T, label string, w *sim.Wiring) {
	t.Helper()
	seq := func(i int32) int32 {
		if w.Ops[i].Kind == sim.OpRep {
			return w.Rep(i).Seq
		}
		return w.Comm(i).Seq
	}
	slotOwner := make([]int32, w.Slots)
	for i, o := range w.Ops {
		for sl := o.SlotBase; o.Kind == sim.OpRep && sl < o.SlotBase+o.NSlots; sl++ {
			slotOwner[sl] = int32(i)
		}
	}
	prev := make([]int32, w.NumRes())
	for r := range prev {
		prev[r] = sim.NoOp
	}
	for k, o := range w.Ops {
		i := int32(k)
		if i > 0 && seq(i) < seq(i-1) {
			t.Fatalf("%s: op %d has seq %d after op %d's seq %d", label, i, seq(i), i-1, seq(i-1))
		}
		if o.Kind == sim.OpComm {
			if o.Src >= i {
				t.Fatalf("%s: transfer op %d reads source replica op %d", label, i, o.Src)
			}
			for _, sl := range w.Feeds[o.FeedBase : o.FeedBase+o.NFeeds] {
				if slotOwner[sl] <= i {
					t.Fatalf("%s: transfer op %d feeds replica op %d", label, i, slotOwner[sl])
				}
			}
		}
		for _, r := range w.ResIDs[o.ResBase : o.ResBase+o.NRes] {
			if p := prev[r]; p != sim.NoOp && seq(p) > seq(i) {
				t.Fatalf("%s: resource %d holds op %d (seq %d) before op %d (seq %d)", label, r, p, seq(p), i, seq(i))
			}
			prev[r] = i
		}
	}
}

// checkResultOrder fails unless res lists each task's replicas and the
// transfers as s does, followed by the replay's reactive placements in
// placement order.
func checkResultOrder(t *testing.T, label string, s *sched.Schedule, res *sim.Result) {
	t.Helper()
	for task, reps := range s.Reps {
		got := res.Reps[task]
		if len(got) < len(reps) {
			t.Fatalf("%s: task %d lists %d replicas, the schedule %d", label, task, len(got), len(reps))
		}
		for k, o := range got {
			if k < len(reps) && o.Rep != reps[k] || k >= len(reps) && (!o.Reactive || o.Rep.Seq < got[k-1].Rep.Seq) {
				t.Fatalf("%s: task %d replica %d is %+v, out of order", label, task, k, o.Rep)
			}
		}
	}
	if len(res.Comms) < len(s.Comms) {
		t.Fatalf("%s: %d transfers listed, the schedule holds %d", label, len(res.Comms), len(s.Comms))
	}
	for k, o := range res.Comms {
		if k < len(s.Comms) && o.Comm != s.Comms[k] || k >= len(s.Comms) && (!o.Reactive || k > 0 && o.Comm.Seq < res.Comms[k-1].Comm.Seq) {
			t.Fatalf("%s: transfer %d is %+v, out of order", label, k, o.Comm)
		}
	}
}
