package online

import (
	"fmt"
	"math"

	"caft/internal/dag"
	"caft/internal/sched"
	"caft/internal/sim"
)

// reschedule is the reactive re-mapper, run on the pass that added the
// crash at tau. It cancels every op that pass kills and no earlier pass
// did (marking the state dirty: run restores it afterwards): it drops
// the replica records, and frees the reservations a survivor can see —
// not those on a crashed processor's compute timeline or on a crashed
// endpoint's port, which no placement probes again (bestSurvivor and
// placeReactive skip crashed processors). Then it computes the set of
// tasks that must be (re-)executed, and places one new replica per task
// on the surviving processors with minimum-finish probes, in
// topological order so that re-executed predecessors feed re-executed
// successors.
//
// A task needs re-execution when it has neither a live replica nor a
// done replica whose data is still reachable (its processor alive).
// The closure extends upward: a predecessor whose result exists only on
// crashed processors must be recomputed before its consumer can be fed.
// Re-executing an already-completed task does not move its completion
// time — the task was computed when its first replica finished — it
// only regenerates the data later consumers read.
//
// Like the rest of the crash path it allocates nothing once the
// engine's scratch has warmed up.
//
//caft:zeroalloc
func (e *Engine) reschedule(tau float64) error {
	from, to := e.rep.Evaluated() // the other ops kept their fault-free fates
	for i := from; i < to; i++ {
		if e.cancelled[i] || e.rep.Fate(i).Alive {
			continue
		}
		e.cancelled[i] = true
		e.dirty = true
		o := &e.w.Ops[i]
		var err error
		switch {
		case o.Kind == sim.OpComm:
			err = e.st.CancelCommPorts(e.w.Comm(i), !e.down(int(o.P)), !e.down(int(o.Q)))
		case e.down(int(o.P)):
			err = e.st.DropReplica(e.w.Rep(i))
		default:
			err = e.st.CancelReplica(e.w.Rep(i))
		}
		if err != nil {
			return fmt.Errorf("online: cancel at tau=%v: %w", tau, err) //caft:alloc-ok rejection path; cancelling a wired op of a validated schedule succeeds
		}
	}

	// Lost tasks, then the upward data-availability closure.
	for t := range e.inNeed {
		e.inNeed[t] = false
	}
	e.needList = e.needList[:0]
	for t := range e.inNeed {
		if !e.unrecover[t] && !e.hasDone(dag.TaskID(t), tau) && !e.hasLive(dag.TaskID(t), tau) {
			e.inNeed[t] = true
			e.needList = append(e.needList, int32(t))
		}
	}
	for k := 0; k < len(e.needList); k++ {
		t := dag.TaskID(e.needList[k])
		from, _ := e.w.CG.Pred(t)
		for _, f := range from {
			p := dag.TaskID(f)
			if e.inNeed[p] || e.unrecover[p] || e.hasData(p, tau) {
				continue
			}
			e.inNeed[p] = true
			e.needList = append(e.needList, int32(p))
		}
	}
	if len(e.needList) == 0 {
		return nil
	}

	e.dirty = true
	e.st.SetFloor(tau)
	defer e.st.SetFloor(0)
	for _, t := range e.w.CG.Topo() {
		if !e.inNeed[t] {
			continue
		}
		if err := e.placeReactive(dag.TaskID(t), tau); err != nil {
			return err
		}
	}
	return nil
}

// hasLive reports whether t has a replica live at tau.
//
//caft:zeroalloc
func (e *Engine) hasLive(t dag.TaskID, tau float64) bool {
	for _, i := range e.w.TaskOps[t] {
		if e.live(i, tau) {
			return true
		}
	}
	return false
}

// hasDone reports whether t has a replica done by tau: the task is
// computed, whether or not its data survives.
//
//caft:zeroalloc
func (e *Engine) hasDone(t dag.TaskID, tau float64) bool {
	for _, i := range e.w.TaskOps[t] {
		if e.done(i, tau) {
			return true
		}
	}
	return false
}

// hasData reports whether t's result is (or will be) available to new
// consumers at tau: a done replica on a surviving processor, or a live
// replica.
//
//caft:zeroalloc
func (e *Engine) hasData(t dag.TaskID, tau float64) bool {
	for _, i := range e.w.TaskOps[t] {
		if e.done(i, tau) && !e.down(int(e.w.Ops[i].P)) {
			return true
		}
	}
	return e.hasLive(t, tau)
}

// placeReactive places one new replica of t on the surviving processor
// giving the earliest finish, then appends the placement to the
// wiring. Probing consults the bounded candidate set (Problem.ProbeWidth
// via State.Candidates; all m processors by default) and falls back to
// the full processor set when no bounded candidate survives or accepts —
// bounding must never turn a recoverable task unrecoverable. A task with
// no reachable source for some predecessor, or no feasible processor at
// all, is marked unrecoverable and stays lost.
//
//caft:zeroalloc
func (e *Engine) placeReactive(t dag.TaskID, tau float64) error {
	pf, pv := e.w.CG.Pred(t)
	sets, srcs := e.sets[:0], e.srcs[:0]
	for k, f := range pf {
		from := dag.TaskID(f)
		n := len(srcs)
		for _, r := range e.st.Reps[from] {
			if !e.down(r.Proc) {
				srcs = append(srcs, r)
			}
		}
		if len(srcs) == n {
			e.unrecover[t] = true
			return nil
		}
		// Sources is rebased onto the final srcs below: appends may still
		// move the buffer, so only its length is meaningful here.
		sets = append(sets, sched.SourceSet{Pred: from, Volume: pv[k], Sources: srcs[n:]})
	}
	off := 0
	for k := range sets {
		n := len(sets[k].Sources)
		sets[k].Sources = srcs[off : off+n]
		off += n
	}
	e.sets, e.srcs = sets, srcs
	copyIdx := int(e.nextCopy[t])
	cands := e.st.Candidates(t, 1)
	bestProc := e.bestSurvivor(t, copyIdx, cands, sets)
	if bestProc < 0 && len(cands) < e.m {
		bestProc = e.bestSurvivor(t, copyIdx, nil, sets)
	}
	if bestProc < 0 {
		e.unrecover[t] = true
		return nil
	}
	e.nextCopy[t]++
	commsBefore := len(e.st.Comms)
	rep, err := e.st.PlaceReplica(t, copyIdx, bestProc, sets)
	if err != nil {
		return fmt.Errorf("online: reactive placement of task %d: %w", t, err) //caft:alloc-ok rejection path; the probe that chose bestProc accepted the same placement
	}
	e.wire(t, rep, e.st.Comms[commsBefore:], tau)
	e.rescheduled++
	return nil
}

// probe is one bestSurvivor candidate: a live processor and the lower
// bound on the finish a placement there can achieve.
type probe struct {
	bound float64
	proc  int
}

// bestSurvivor returns the processor giving replica copyIdx of t the
// earliest probed finish, ties to the smaller processor, among the
// candidates — the given slice, or every processor when procs is nil —
// that have not crashed; -1 when none accepts. Candidates are probed in
// ascending (State.FinishLowerBound, proc) order, and probing stops at
// the first candidate whose bound exceeds the best finish so far, or
// equals it with a larger processor: no later candidate can then win.
// The result is the lexicographic minimum (finish, proc) over all
// candidates, exactly what probing every one in ascending processor
// order would select.
//
//caft:zeroalloc
func (e *Engine) bestSurvivor(t dag.TaskID, copyIdx int, procs []int, sets []sched.SourceSet) int {
	n := e.m
	if procs != nil {
		n = len(procs)
	}
	order := e.probes[:0]
	for k := 0; k < n; k++ {
		proc := k
		if procs != nil {
			proc = procs[k]
		}
		if e.down(proc) {
			continue
		}
		c := probe{bound: e.st.FinishLowerBound(t, proc, sets), proc: proc}
		i := len(order)
		order = append(order, c)
		for ; i > 0 && (c.bound < order[i-1].bound || c.bound == order[i-1].bound && c.proc < order[i-1].proc); i-- {
			order[i] = order[i-1]
		}
		order[i] = c
	}
	e.probes = order
	bestProc, bestFin := -1, math.Inf(1)
	for _, c := range order {
		if c.bound > bestFin || c.bound == bestFin && c.proc > bestProc {
			break
		}
		rep, err := e.st.ProbeReplica(t, copyIdx, c.proc, sets)
		if err != nil {
			continue
		}
		if rep.Finish < bestFin || rep.Finish == bestFin && c.proc < bestProc {
			bestProc, bestFin = c.proc, rep.Finish
		}
	}
	return bestProc
}

// wire appends the reactive placement — its input transfers first,
// then the replica — to the wiring, each with the start floor tau: a
// reactive placement cannot occupy resources before the crash that
// triggered it was observed.
//
//caft:zeroalloc
func (e *Engine) wire(t dag.TaskID, rep sched.Replica, newComms []sched.Comm, tau float64) {
	w := e.w
	slotBase := w.AddSlots(w.CG.InDegree(t))
	for _, c := range newComms {
		w.Ops[w.AddComm(c, slotBase)].Floor = tau
	}
	w.Ops[w.AddRep(rep, slotBase)].Floor = tau
	for len(e.cancelled) < len(w.Ops) {
		e.cancelled = append(e.cancelled, false)
	}
}
