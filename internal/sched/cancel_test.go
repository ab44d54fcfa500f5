package sched

import (
	"reflect"
	"testing"

	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/timeline"
)

// buildSmallState places a fork graph (0 -> 1, 0 -> 2) with replicated
// tasks across 3 processors and returns the state plus its schedule.
func buildSmallState(t *testing.T, pol timeline.Policy) *State {
	t.Helper()
	g := dag.New(3)
	g.AddEdge(0, 1, 4)
	g.AddEdge(0, 2, 4)
	p := prob(g, 3, 2)
	p.Policy = pol
	st := NewState(p)
	if _, err := st.PlaceReplica(0, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PlaceReplica(0, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	for task := dag.TaskID(1); task <= 2; task++ {
		for copy, proc := range []int{1, 2} {
			if _, err := st.PlaceReplica(task, copy, proc, st.FullSources(task)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// statePrint captures everything CopyFrom must restore: records,
// sequence counter and every timeline's interval list and ready time.
type statePrint struct {
	reps  [][]Replica
	comms []Comm
	seq   int32
	ivs   [][]timeline.Interval
	ready []float64
}

func printState(st *State) statePrint {
	fp := statePrint{seq: st.seq}
	for t := range st.Reps {
		fp.reps = append(fp.reps, append([]Replica(nil), st.Reps[t]...))
	}
	fp.comms = append([]Comm(nil), st.Comms...)
	for i := 0; i < st.NumTimelines(); i++ {
		tl := st.Timeline(i)
		fp.ivs = append(fp.ivs, append([]timeline.Interval(nil), tl.Intervals()...))
		fp.ready = append(fp.ready, tl.Ready())
	}
	return fp
}

// TestCancelReplicaRemovesRecordAndReservation cancels a replica
// outside any speculation and checks both the record and the compute
// reservation are gone, then re-places onto the freed slot.
func TestCancelReplicaRemovesRecordAndReservation(t *testing.T) {
	st := buildSmallState(t, timeline.Append)
	victim := st.Reps[1][0]
	if err := st.CancelReplica(victim); err != nil {
		t.Fatal(err)
	}
	if len(st.Reps[1]) != 1 || st.Reps[1][0].Copy == victim.Copy {
		t.Fatalf("record not removed: %+v", st.Reps[1])
	}
	for _, iv := range st.Timeline(victim.Proc).Intervals() {
		if iv.Owner == victim.Seq {
			t.Fatalf("compute reservation of seq %d still present", victim.Seq)
		}
	}
	if err := st.CancelReplica(victim); err == nil {
		t.Fatal("double cancel accepted")
	}
}

// TestCancelCommFreesPorts cancels an inter-processor communication and
// checks its send/recv/link reservations vanish while the record stays.
func TestCancelCommFreesPorts(t *testing.T) {
	st := buildSmallState(t, timeline.Append)
	var victim Comm
	for _, c := range st.Comms {
		if !c.Intra {
			victim = c
			break
		}
	}
	if victim.Seq == 0 {
		t.Fatal("no inter-processor comm placed")
	}
	nComms := len(st.Comms)
	if err := st.CancelCommPorts(victim, true, true); err != nil {
		t.Fatal(err)
	}
	if len(st.Comms) != nComms {
		t.Fatal("CancelCommPorts must not drop the record")
	}
	for i := 0; i < st.NumTimelines(); i++ {
		for _, iv := range st.Timeline(i).Intervals() {
			if iv.Owner == victim.Seq {
				t.Fatalf("reservation of comm seq %d still on timeline %d", victim.Seq, i)
			}
		}
	}
	if err := st.CancelCommPorts(victim, true, true); err == nil {
		t.Fatal("double cancel accepted")
	}
}

// TestDropReplicaKeepsReservation drops a replica record and checks
// its compute reservation stays.
func TestDropReplicaKeepsReservation(t *testing.T) {
	st := buildSmallState(t, timeline.Append)
	victim := st.Reps[1][0]
	if err := st.DropReplica(victim); err != nil {
		t.Fatal(err)
	}
	if len(st.Reps[1]) != 1 || st.Reps[1][0].Copy == victim.Copy {
		t.Fatalf("record not removed: %+v", st.Reps[1])
	}
	held := false
	for _, iv := range st.Timeline(victim.Proc).Intervals() {
		held = held || iv.Owner == victim.Seq
	}
	if !held {
		t.Fatalf("compute reservation of seq %d removed", victim.Seq)
	}
	if err := st.DropReplica(victim); err == nil {
		t.Fatal("double drop accepted")
	}
}

// TestCancelCommPortsKeepsUnsetPorts cancels an inter-processor
// communication keeping one port at a time and checks exactly that
// port still holds its reservation.
func TestCancelCommPortsKeepsUnsetPorts(t *testing.T) {
	for _, send := range []bool{false, true} {
		st := buildSmallState(t, timeline.Append)
		var victim Comm
		for _, c := range st.Comms {
			if !c.Intra {
				victim = c
				break
			}
		}
		if err := st.CancelCommPorts(victim, send, !send); err != nil {
			t.Fatal(err)
		}
		ports := st.lay.AppendComm(nil, victim.SrcProc, victim.DstProc) // send port, receive port
		kept := ports[1]
		if !send {
			kept = ports[0]
		}
		for i := 0; i < st.NumTimelines(); i++ {
			held := false
			for _, iv := range st.Timeline(i).Intervals() {
				held = held || iv.Owner == victim.Seq
			}
			if held != (int32(i) == kept) {
				t.Fatalf("send=%v: timeline %d holds comm seq %d: %v, want %v", send, i, victim.Seq, held, int32(i) == kept)
			}
		}
	}
}

// TestCopyFromRestoresCancels is the restore pin of the cancel
// machinery, as the online engine uses it: a working copy of a state
// cancels replicas and comms, places new work into the freed slots, and
// cancels some of the newly placed work again (a reactive replica dying
// at a later crash); copying the base state back must then give a state
// identical to the base, with consistent timelines, and the base must
// never have changed.
func TestCopyFromRestoresCancels(t *testing.T) {
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		base := buildSmallState(t, pol)
		before := printState(base)
		st := NewState(base.P)
		st.CopyFrom(base)
		if !reflect.DeepEqual(before, printState(st)) {
			t.Fatalf("%v: copy differs from its source", pol)
		}
		// Cancel one replica of each successor and one comm.
		if err := st.CancelReplica(st.Reps[1][0]); err != nil {
			t.Fatal(err)
		}
		if err := st.CancelReplica(st.Reps[2][1]); err != nil {
			t.Fatal(err)
		}
		for _, c := range st.Comms {
			if !c.Intra {
				if err := st.CancelCommPorts(c, true, true); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		// Re-place task 1 on the freed processor, then cancel the new
		// replica again.
		rep, err := st.PlaceReplica(1, 2, 0, st.FullSources(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.PlaceReplica(2, 2, 0, st.FullSources(2)); err != nil {
			t.Fatal(err)
		}
		if err := st.CancelReplica(rep); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, printState(base)) {
			t.Fatalf("%v: work on the copy changed its source", pol)
		}
		st.CopyFrom(base)
		if after := printState(st); !reflect.DeepEqual(before, after) {
			t.Fatalf("%v: state not restored after cancel/replace:\nbefore %+v\nafter  %+v", pol, before, after)
		}
		for i := 0; i < st.NumTimelines(); i++ {
			if err := st.Timeline(i).Validate(); err != nil {
				t.Fatalf("%v: timeline %d after restore: %v", pol, i, err)
			}
		}
	}
}

// TestSetFloorClampsPlacements checks that with a floor set, probes and
// placements never start before it, under both policies — including an
// Insertion-policy gap that predates the floor.
func TestSetFloorClampsPlacements(t *testing.T) {
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		g := gen.Chain(2, 1)
		p := prob(g, 2, 2)
		p.Policy = pol
		st := NewState(p)
		if _, err := st.PlaceReplica(0, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
		st.SetFloor(50)
		rep, err := st.ProbeReplica(1, 0, 1, st.FullSources(1))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Start < 50 {
			t.Fatalf("%v: probe start %v below floor", pol, rep.Start)
		}
		rep, err = st.PlaceReplica(1, 0, 1, st.FullSources(1))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Start < 50 {
			t.Fatalf("%v: placed start %v below floor", pol, rep.Start)
		}
		// The comm feeding the placement must respect the floor too.
		for _, c := range st.Comms {
			if !c.Intra && c.Start < 50 {
				t.Fatalf("%v: comm start %v below floor", pol, c.Start)
			}
		}
		st.SetFloor(0)
	}
}

// TestStateOfRebuildsSchedule rebuilds a state from a snapshot and
// checks records, sequence counter and timeline contents match the
// original construction.
func TestStateOfRebuildsSchedule(t *testing.T) {
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		st := buildSmallState(t, pol)
		s := st.Snapshot()
		got, err := StateOf(s)
		if err != nil {
			t.Fatal(err)
		}
		want, have := printState(st), printState(got)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("%v: rebuilt state differs:\nwant %+v\ngot  %+v", pol, want, have)
		}
		// The rebuilt state schedules identically: place one more replica
		// on both and compare.
		a, err := st.PlaceReplica(1, 2, 0, st.FullSources(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.PlaceReplica(1, 2, 0, got.FullSources(1))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%v: placement diverged: %+v vs %+v", pol, a, b)
		}
	}
}

// TestStateOfRejectsOverlap rejects a corrupted schedule whose compute
// reservations overlap.
func TestStateOfRejectsOverlap(t *testing.T) {
	g := gen.Chain(2, 1)
	p := prob(g, 1, 2)
	s := &Schedule{P: p, Reps: [][]Replica{
		{{Task: 0, Copy: 0, Proc: 0, Start: 0, Finish: 2, Seq: 1}},
		{{Task: 1, Copy: 0, Proc: 0, Start: 1, Finish: 3, Seq: 2}},
	}}
	if _, err := StateOf(s); err == nil {
		t.Fatal("overlapping schedule accepted")
	}
}
