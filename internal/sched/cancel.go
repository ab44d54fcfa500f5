package sched

import (
	"fmt"

	"caft/internal/timeline"
)

// This file is the online-rescheduling surface of State: rebuilding a
// state from a committed schedule, copying one state into another,
// cancelling the reservations of work lost to a crash, and the time
// floor that keeps reactive placements from rewriting the past. The
// online engine cancels and re-places work on its state during a
// replay and then restores the state with CopyFrom from a pristine copy
// (see internal/online).

// StateOf rebuilds the mutable resource state a schedule was committed
// from: every replica and every inter-processor communication is
// re-booked on the timelines at its recorded interval with its Seq as
// owner, and the replica/communication records are restored. The
// schedule must have been produced by this package's State (records
// carry distinct Seq owners and pairwise-feasible intervals); a
// schedule whose reservations overlap is rejected.
func StateOf(s *Schedule) (*State, error) {
	st := newState(s.P)
	var maxSeq int32
	for t := range s.Reps {
		st.Reps[t] = append([]Replica(nil), s.Reps[t]...)
		for _, r := range s.Reps[t] {
			if err := st.tls[st.lay.Compute(r.Proc)].Add(r.Start, r.Finish-r.Start, r.Seq); err != nil {
				return nil, fmt.Errorf("sched: rebuild replica (%d,%d): %w", t, r.Copy, err)
			}
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
		}
	}
	st.Comms = append([]Comm(nil), s.Comms...)
	for i, c := range s.Comms {
		if c.Seq > maxSeq {
			maxSeq = c.Seq
		}
		for _, id := range st.commResources(c.SrcProc, c.DstProc) {
			if err := st.tls[id].Add(c.Start, c.Dur, c.Seq); err != nil {
				return nil, fmt.Errorf("sched: rebuild comm %d: %w", i, err)
			}
		}
	}
	st.seq = maxSeq
	return st, nil
}

// CopyFrom makes st a copy of src, a state of the same problem: its
// replica and communication records, sequence counter, floor and every
// timeline (see Timeline.CopyFrom). It reuses st's buffers, so once
// they have grown to src's sizes it allocates nothing, and afterwards
// st shares no memory with src. The problem-derived scratch (the probe
// overlay, the OFT table, the candidate buffers) stays as it is. It
// panics when either state is a probe overlay or the problems differ.
//
//caft:zeroalloc
func (st *State) CopyFrom(src *State) {
	if st.overlay || src.overlay {
		panic("sched: CopyFrom with a probe overlay")
	}
	if st.P != src.P {
		panic("sched: CopyFrom from a state of another problem")
	}
	for t := range src.Reps {
		st.Reps[t] = append(st.Reps[t][:0], src.Reps[t]...)
	}
	st.Comms = append(st.Comms[:0], src.Comms...)
	st.seq, st.floor = src.seq, src.floor
	for i := range src.tls {
		st.tls[i].CopyFrom(&src.tls[i])
	}
}

// SetFloor sets the rescheduling time floor: while floor > 0, every new
// reservation (probe or placement) starts at or after it. The online
// rescheduler sets the floor to the crash instant before re-mapping
// lost work — a reactive placement must not occupy resources in the
// past — and resets it to 0 afterwards. The floor does not move
// existing reservations and, under the macro-dataflow model, does not
// constrain communications (they occupy no resources; the online
// engine clamps their executed times instead).
//
//caft:zeroalloc
func (st *State) SetFloor(t float64) {
	if st.overlay {
		panic("sched: SetFloor on a probe overlay")
	}
	st.floor = t
}

// CancelReplica removes a placed replica record and its compute
// reservation — the rescheduler's cancellation of work lost to a
// crash. The replica is matched by (Task, Copy, Proc).
//
//caft:zeroalloc
func (st *State) CancelReplica(rep Replica) error {
	return st.cancelReplica(rep, true)
}

// DropReplica removes a placed replica record like CancelReplica but
// keeps its compute reservation: the rescheduler's cancellation on a
// crashed processor, whose timeline no later placement probes.
//
//caft:zeroalloc
func (st *State) DropReplica(rep Replica) error {
	return st.cancelReplica(rep, false)
}

// cancelReplica removes a replica record, and its compute reservation
// when free is set.
//
//caft:zeroalloc
func (st *State) cancelReplica(rep Replica, free bool) error {
	if st.overlay {
		panic("sched: CancelReplica on a probe overlay")
	}
	reps := st.Reps[rep.Task]
	idx := -1
	for i := range reps {
		if reps[i].Copy == rep.Copy && reps[i].Proc == rep.Proc {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("sched: cancel of unknown replica (%d,%d) on P%d", rep.Task, rep.Copy, rep.Proc) //caft:alloc-ok rejection path; the accept path allocates nothing
	}
	if rec := reps[idx]; free {
		if err := st.removeReservation(st.lay.Compute(rec.Proc), rec.Start, rec.Seq); err != nil {
			return fmt.Errorf("sched: cancel replica (%d,%d): %w", rep.Task, rep.Copy, err) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
	}
	st.Reps[rep.Task] = append(reps[:idx], reps[idx+1:]...)
	return nil
}

// CancelCommPorts removes a communication's shared-link reservations,
// and its send-port one if send is set and its receive-port one if recv
// is set: the rescheduler keeps the port of a crashed endpoint, which
// no later placement probes. The shared links are always freed, since
// transfers between surviving processors may route over them. The
// communication record itself stays in Comms — the record log is
// append-only, and a dead transfer's record is harmless to later
// placements, which consult only the timelines. Intra and
// macro-dataflow communications hold no resources (see
// Layout.AppendComm) and cancel to a no-op.
//
//caft:zeroalloc
func (st *State) CancelCommPorts(c Comm, send, recv bool) error {
	if st.overlay {
		panic("sched: CancelCommPorts on a probe overlay")
	}
	for k, id := range st.commResources(c.SrcProc, c.DstProc) {
		if k == 0 && !send || k == 1 && !recv { // Layout.AppendComm lists the ports first
			continue
		}
		if err := st.removeReservation(id, c.Start, c.Seq); err != nil {
			return fmt.Errorf("sched: cancel comm %d->%d seq %d: %w", c.From, c.To, c.Seq, err) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
	}
	return nil
}

// removeReservation deletes one timeline reservation.
//
//caft:zeroalloc
func (st *State) removeReservation(id int32, start float64, owner int32) error {
	if !st.tls[id].Remove(start, owner) {
		return fmt.Errorf("no reservation at %v owned by %d on timeline %d", start, owner, id) //caft:alloc-ok rejection path; the accept path allocates nothing
	}
	return nil
}

// NumTimelines returns the number of resource timelines: m compute, m
// send ports, m receive ports, then one per shared link (3m on the
// clique; see State).
func (st *State) NumTimelines() int { return len(st.tls) }

// Layout returns the resource layout the state numbers its timelines
// by, for a replay wiring of the same schedule to share.
func (st *State) Layout() Layout { return st.lay }

// Timeline returns resource timeline i for inspection (validation
// cross-checks, tests). The returned pointer aliases state-owned
// storage and must not be mutated.
func (st *State) Timeline(i int) *timeline.Timeline { return &st.tls[i] }
