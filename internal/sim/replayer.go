package sim

import (
	"fmt"
	"math"
	"sort"

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
	w *Wiring
	// order is the static prefix of w in placement order
	// (Wiring.before), then every op appended after it in index order
	// (see fit).
	order []int32

	// Per-replay scratch.
	x        []opRun   // per op: liveness and times of the latest run
	resFree  []float64 // per resource: free time after its latest member
	slotAt   []float64 // per slot: aggregated arrival of its surviving feeders
	slotDied []float64 // per slot: latest death instant of its feeders
	// crashAt is the per-processor crash instant of this replay: -Inf
	// for a processor crashed from the start (a static crash set), +Inf
	// for one that never crashes.
	crashAt []float64
}

// opRun is the replayed fate of one op. A dead op keeps zero times and
// the instant its death becomes observable.
type opRun struct {
	alive         bool
	start, finish float64
	died          float64
}

// NewReplayer builds the replay tables for s (see NewWiring for the
// schedules it rejects).
func NewReplayer(s *sched.Schedule) (*Replayer, error) {
	w, err := NewWiring(s, sched.NewLayout(s.P))
	if err != nil {
		return nil, err
	}
	return NewReplayerOf(w), nil
}

// NewReplayerOf builds a Replayer over an existing wiring, which it
// shares: ops appended to w after its static prefix replay too, each
// no earlier than its Op.Floor, and w.Truncate drops them again.
func NewReplayerOf(w *Wiring) *Replayer {
	r := &Replayer{w: w, order: make([]int32, w.nOps0)}
	for i := range r.order {
		r.order[i] = int32(i)
	}
	sort.Slice(r.order, func(a, b int) bool { return w.before(r.order[a], r.order[b]) })
	r.x = make([]opRun, w.nOps0)
	r.resFree = make([]float64, w.NumRes())
	r.slotAt = make([]float64, w.nSlots0)
	r.slotDied = make([]float64, w.nSlots0)
	r.crashAt = make([]float64, w.S.P.Plat.M)
	return r
}

// fit sizes the order and the per-op and per-slot scratch to the
// wiring's current length. An op appended after the static prefix
// evaluates in index order after every static op: its constraints —
// its source replica, its feeding transfers, the previous holders of
// its resources — are all earlier ops, static or appended before it.
// The scratch keeps its capacity across Truncate, so replays whose
// appended ops fit it allocate nothing.
//
//caft:zeroalloc
func (r *Replayer) fit() {
	w := r.w
	if len(r.order) != len(w.Ops) {
		r.order = r.order[:w.nOps0]
		for i := int32(w.nOps0); i < int32(len(w.Ops)); i++ {
			r.order = append(r.order, i)
		}
		for len(r.x) < len(w.Ops) {
			r.x = append(r.x, opRun{})
		}
	}
	for len(r.slotAt) < int(w.Slots) {
		r.slotAt = append(r.slotAt, 0)
		r.slotDied = append(r.slotDied, 0)
	}
	r.slotAt, r.slotDied = r.slotAt[:w.Slots], r.slotDied[:w.Slots]
}

// setCrashed loads a static crash set into crashAt.
//
//caft:zeroalloc
func (r *Replayer) setCrashed(crashed map[int]bool) {
	for i := range r.crashAt {
		r.crashAt[i] = math.Inf(1)
	}
	for p, c := range crashed { //caft:unordered-ok dense store, one slot per key
		if c && p >= 0 && p < len(r.crashAt) {
			r.crashAt[p] = math.Inf(-1)
		}
	}
}

// run replays the schedule in one forward pass over the ops in
// placement order, deciding each op's liveness and times together. The
// pass is exact because every constraint points to an earlier-placed
// op — a resource's previous member, a transfer's source replica, a
// replica's feeding transfers (NewWiring rejects schedules where it
// does not) — so each op starts as early as its constraints allow.
//
// An op dies when it would finish more than sched.Eps after its crash
// instant (crashAt of its processor; the earlier of its endpoints' for
// a transfer) or loses its input: a transfer whose source replica is
// dead, a replica one of whose input slots has no surviving feeder. A
// dead op records the instant its death becomes observable — the
// missed crash, the source's instant, the slot's last feeder death,
// whichever comes first — and holds its resources until then: a
// resource it occupies is free no earlier than that instant, the
// causal clamp: no survivor moves into a slot before the crash that
// vacated it is observable. A static crash is the instant -Inf,
// which kills every op on the processor and frees its resources at
// once.
//
// A replica starts at the first surviving arrival from each
// predecessor; last, used only by UpperBound, makes it wait for the
// last one instead. No op starts before its Op.Floor.
//
//caft:zeroalloc
func (r *Replayer) run(last bool) {
	r.fit()
	w := r.w
	for i := range r.resFree {
		r.resFree[i] = 0
	}
	none := math.Inf(1) // first arrival keeps each slot's earliest arrival
	if last {
		none = math.Inf(-1) // ...last arrival its latest
	}
	for i := range r.slotAt {
		r.slotAt[i] = none
		r.slotDied[i] = math.Inf(-1)
	}
	for _, i := range r.order {
		o := &w.Ops[i]
		x := &r.x[i]
		var crash float64
		if o.Kind == OpRep {
			crash = r.crashAt[o.Rep.Proc]
		} else if crash = r.crashAt[o.Comm.SrcProc]; r.crashAt[o.Comm.DstProc] < crash {
			crash = r.crashAt[o.Comm.DstProc]
		}
		if crash == math.Inf(-1) {
			*x = opRun{died: crash} // a static crash holds nothing
			continue
		}
		st, died := o.Floor, math.Inf(1) // died: the instant an input loss is observable
		if o.Kind == OpRep {
			for sl := o.SlotBase; sl < o.SlotBase+o.NSlots; sl++ {
				if a := r.slotAt[sl]; a == none {
					if d := r.slotDied[sl]; d < died {
						died = d // starved of this predecessor
					}
				} else if a > st {
					st = a
				}
			}
		} else if src := &r.x[o.Src]; !src.alive {
			died = src.died
		} else if src.finish > st {
			st = src.finish
		}
		if died == math.Inf(1) {
			for k := o.ResBase; k < o.ResBase+o.NRes; k++ {
				if f := r.resFree[w.ResIDs[k]]; f > st {
					st = f
				}
			}
			if st+o.Dur <= crash+sched.Eps {
				*x = opRun{alive: true, start: st, finish: st + o.Dur}
				for k := o.ResBase; k < o.ResBase+o.NRes; k++ {
					r.resFree[w.ResIDs[k]] = x.finish
				}
				for k := o.FeedBase; k < o.FeedBase+o.NFeeds; k++ {
					sl := w.Feeds[k]
					if a := r.slotAt[sl]; !last && x.finish < a || last && x.finish > a {
						r.slotAt[sl] = x.finish
					}
				}
				continue
			}
		}
		if crash < died {
			died = crash
		}
		*x = opRun{died: died}
		for k := o.ResBase; k < o.ResBase+o.NRes; k++ {
			if id := w.ResIDs[k]; died > r.resFree[id] {
				r.resFree[id] = died
			}
		}
		for k := o.FeedBase; k < o.FeedBase+o.NFeeds; k++ {
			if sl := w.Feeds[k]; died > r.slotDied[sl] {
				r.slotDied[sl] = died
			}
		}
	}
}

// Fate returns op i's fate in the latest replay. An op appended after
// the wiring's static prefix is Reactive, placed at its Op.Floor.
//
//caft:zeroalloc
func (r *Replayer) Fate(i int32) Fate {
	x := &r.x[i]
	f := Fate{Alive: x.alive, Start: x.start, Finish: x.finish}
	if int(i) >= r.w.nOps0 {
		f.Reactive, f.PlacedAt = true, r.w.Ops[i].Floor
	}
	return f
}

// Result materializes the fates of the latest replay into a fresh
// Result (the only allocating step of a steady-state replay).
func (r *Replayer) Result() *Result {
	return r.w.Result(r.Fate)
}

// ReplayAt replays with the dense per-processor crash vector crashAt,
// one instant per processor: +Inf never crashes, -Inf is crashed from
// the start. Fate, Result and Latency read the replay.
//
//caft:zeroalloc
func (r *Replayer) ReplayAt(crashAt []float64) {
	copy(r.crashAt, crashAt)
	r.run(false)
}

// Replay recomputes the schedule's execution with the given processors
// crashed from the start (nil means no failures) and materializes every
// operation's fate into a fresh Result.
//
//caft:zeroalloc
func (r *Replayer) Replay(crashed map[int]bool) *Result {
	r.setCrashed(crashed)
	r.run(false)
	return r.Result() //caft:alloc-ok the Result is the caller's one deliberate allocation
}

// Latency returns the latest replay's Result.Latency, computed directly
// from the scratch tables.
//
//caft:zeroalloc
func (r *Replayer) Latency() (float64, error) {
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

// CrashLatency replays with the given processors crashed from the
// start and returns the achieved latency without allocating a Result.
// A lost task reports an error satisfying errors.Is(err, ErrTaskLost).
//
//caft:zeroalloc
func (r *Replayer) CrashLatency(crashed map[int]bool) (float64, error) {
	r.setCrashed(crashed)
	r.run(false)
	return r.Latency()
}

// LowerBound replays with no crashes: the latency achieved if no
// processor fails.
//
//caft:zeroalloc
func (r *Replayer) LowerBound() (float64, error) {
	return r.CrashLatency(nil)
}

// UpperBound replays with no crashes, each replica waiting for the last
// arrival from every predecessor, and returns the completion time of
// the last replica of any task.
//
//caft:zeroalloc
func (r *Replayer) UpperBound() (float64, error) {
	r.setCrashed(nil)
	r.run(true)
	lat := 0.0
	for i := range r.w.Ops {
		if x := &r.x[i]; r.w.Ops[i].Kind == OpRep && x.alive && x.finish > lat {
			lat = x.finish
		}
	}
	return lat, nil
}
