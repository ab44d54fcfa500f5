package sim

import (
	"fmt"
	"math"
	"sort"

	"caft/internal/dag"
	"caft/internal/sched"
)

// Replayer replays one schedule repeatedly without rebuilding its
// indices. The constructor builds the schedule's Wiring and its
// placement order once; every replay reuses the same scratch buffers,
// so steady-state replays of the same schedule allocate nothing beyond
// the caller's Result (and Latency-only entry points allocate nothing
// at all).
//
// A Replayer is not safe for concurrent use; each goroutine replaying
// the same schedule needs its own (see NewReplayer).
//
//caft:confined
type Replayer struct {
	w     *Wiring
	order []int32 // every op index in placement order (Wiring.before)

	// Per-replay scratch.
	x        []opRun   // per op: liveness and times of the latest run
	resFree  []float64 // per resource: finish of its latest surviving member
	slotAt   []float64 // per slot: aggregated arrival of its surviving feeders
	crashed  []bool
	dead     []bool    // per op: forced dead by the timed-crash fixpoint
	deadline []float64 // per op: crash instant it must beat this timed replay
	crashAt  []float64 // per processor: crash instant of this timed replay, +Inf if none
}

// opRun is the replayed fate of one op.
type opRun struct {
	alive         bool
	start, finish float64
}

// NewReplayer builds the replay tables for s (see NewWiring for the
// schedules it rejects).
func NewReplayer(s *sched.Schedule) (*Replayer, error) {
	w, err := NewWiring(s, sched.NewLayout(s.P))
	if err != nil {
		return nil, err
	}
	r := &Replayer{w: w, order: make([]int32, len(w.Ops))}
	for i := range r.order {
		r.order[i] = int32(i)
	}
	sort.Slice(r.order, func(a, b int) bool { return w.before(r.order[a], r.order[b]) })
	r.x = make([]opRun, len(w.Ops))
	r.resFree = make([]float64, len(w.Members))
	r.slotAt = make([]float64, len(w.SlotOf))
	r.crashed = make([]bool, s.P.Plat.M)
	r.dead = make([]bool, len(w.Ops))
	r.deadline = make([]float64, len(w.Ops))
	r.crashAt = make([]float64, s.P.Plat.M)
	return r, nil
}

// setCrashed loads the crash set into the scratch bitmap.
//
//caft:zeroalloc
func (r *Replayer) setCrashed(crashed map[int]bool) {
	for i := range r.crashed {
		r.crashed[i] = false
	}
	for p, c := range crashed { //caft:unordered-ok bitmap store is order-insensitive
		if c && p >= 0 && p < len(r.crashed) {
			r.crashed[p] = true
		}
	}
}

// run replays the schedule against the current crash bitmap in one
// forward pass over the ops in placement order, deciding each op's
// liveness and times together. The pass is exact because every
// constraint points to an earlier-placed op — a resource's previous
// surviving member, a transfer's source replica, a replica's feeding
// transfers (NewWiring rejects schedules where it does not) — so each
// op starts as early as its constraints allow, the least fixpoint of
// the constraint system. dead (indexed like the ops) forces additional
// operations dead, used by the timed-crash fixpoint of ReplayTimed; it
// may be nil.
//
//caft:zeroalloc
func (r *Replayer) run(sem Semantics, dead []bool) {
	w := r.w
	for i := range r.resFree {
		r.resFree[i] = 0
	}
	none := math.Inf(1) // FirstArrival keeps each slot's earliest arrival
	if sem == LastArrival {
		none = math.Inf(-1) // ...LastArrival its latest
	}
	for i := range r.slotAt {
		r.slotAt[i] = none
	}
	for _, i := range r.order {
		o := &w.Ops[i]
		x := &r.x[i]
		*x = opRun{}
		if dead != nil && dead[i] {
			continue
		}
		st := 0.0
		if o.Kind == OpRep {
			if r.crashed[o.Rep.Proc] {
				continue
			}
			fed := true
			for sl := o.SlotBase; sl < o.SlotBase+o.NSlots; sl++ {
				a := r.slotAt[sl]
				if a == none {
					fed = false // no surviving input from this predecessor
					break
				}
				if a > st {
					st = a
				}
			}
			if !fed {
				continue
			}
		} else {
			src := &r.x[o.Src]
			if !src.alive || r.crashed[o.Comm.DstProc] {
				continue
			}
			st = src.finish
		}
		for k := o.ResBase; k < o.ResBase+o.NRes; k++ {
			if f := r.resFree[w.ResIDs[k]]; f > st {
				st = f
			}
		}
		*x = opRun{alive: true, start: st, finish: st + o.Dur}
		for k := o.ResBase; k < o.ResBase+o.NRes; k++ {
			r.resFree[w.ResIDs[k]] = x.finish
		}
		for k := o.FeedBase; k < o.FeedBase+o.NFeeds; k++ {
			sl := w.Feeds[k]
			if a := r.slotAt[sl]; sem == FirstArrival && x.finish < a || sem == LastArrival && x.finish > a {
				r.slotAt[sl] = x.finish
			}
		}
	}
}

// materialize copies the scratch tables of the latest run into a fresh
// Result (the only allocating step of a steady-state replay).
func (r *Replayer) materialize() *Result {
	w, s := r.w, r.w.S
	res := &Result{Reps: make([][]RepOutcome, len(s.Reps)), Comms: make([]CommOutcome, 0, len(s.Comms))}
	for i, o := range w.Ops {
		if o.Kind == OpComm {
			x := r.x[i]
			res.Comms = append(res.Comms, CommOutcome{Comm: o.Comm, Alive: x.alive, Start: x.start, Finish: x.finish})
		}
	}
	for t, ops := range w.TaskOps {
		anyAlive := false
		res.Reps[t] = make([]RepOutcome, 0, len(ops))
		for _, i := range ops {
			x := r.x[i]
			anyAlive = anyAlive || x.alive
			res.Reps[t] = append(res.Reps[t], RepOutcome{Rep: w.Ops[i].Rep, Alive: x.alive, Start: x.start, Finish: x.finish})
		}
		if !anyAlive {
			res.TasksLost = append(res.TasksLost, dag.TaskID(t))
		}
	}
	return res
}

// Replay recomputes the schedule's execution under the given options
// and materializes every operation's fate into a fresh Result.
//
//caft:zeroalloc
func (r *Replayer) Replay(opt Options) (*Result, error) {
	r.setCrashed(opt.Crashed)
	r.run(opt.Sem, nil)
	return r.materialize(), nil //caft:alloc-ok the Result is the caller's one deliberate allocation
}

// latency computes Result.Latency directly from the scratch tables.
//
//caft:zeroalloc
func (r *Replayer) latency() (float64, error) {
	lat := 0.0
	for t, ops := range r.w.TaskOps {
		min := math.Inf(1)
		for _, i := range ops {
			if x := &r.x[i]; x.alive && x.finish < min {
				min = x.finish
			}
		}
		if math.IsInf(min, 1) {
			return min, fmt.Errorf("sim: task %d lost (no surviving replica): %w", t, ErrTaskLost) //caft:alloc-ok task-lost rejection path; the success path allocates nothing
		}
		if min > lat {
			lat = min
		}
	}
	return lat, nil
}

// CrashLatency replays with the given crashed processors under
// first-arrival semantics and returns the achieved latency without
// allocating a Result. A lost task reports an error satisfying
// errors.Is(err, ErrTaskLost).
//
//caft:zeroalloc
func (r *Replayer) CrashLatency(crashed map[int]bool) (float64, error) {
	r.setCrashed(crashed)
	r.run(FirstArrival, nil)
	return r.latency()
}

// LowerBound replays with no crashes under first-arrival semantics: the
// latency achieved if no processor fails.
//
//caft:zeroalloc
func (r *Replayer) LowerBound() (float64, error) {
	return r.CrashLatency(nil)
}

// UpperBound replays with no crashes under last-arrival semantics and
// returns the completion time of the last replica of any task.
//
//caft:zeroalloc
func (r *Replayer) UpperBound() (float64, error) {
	r.setCrashed(nil)
	r.run(LastArrival, nil)
	lat := 0.0
	for i := range r.w.Ops {
		if x := &r.x[i]; r.w.Ops[i].Kind == OpRep && x.alive && x.finish > lat {
			lat = x.finish
		}
	}
	return lat, nil
}
