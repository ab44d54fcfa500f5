package sim

import (
	"fmt"
	"math"

	"caft/internal/sched"
)

// Replayer replays one schedule repeatedly without rebuilding its
// indices. The constructor builds the schedule's Wiring once; every
// replay reuses the same scratch buffers, so steady-state replays of
// the same schedule allocate nothing beyond the caller's Result (and
// Latency-only entry points allocate nothing at all).
//
// The first replay with a timed crash also keeps the static prefix's
// fault-free pass (faultFree), and every later replay resumes from it:
// the ops before the first one its crashes change keep their
// fault-free fates, so the pass starts at the checkpoint before that
// op instead of at the first op.
//
// A Replayer is not safe for concurrent use; each goroutine replaying
// the same schedule needs its own (see NewReplayer).
//
//caft:confined
type Replayer struct {
	w *Wiring

	// Per-replay scratch.
	x        []opRun   // per op: liveness and times of the latest run
	resFree  []float64 // per resource: free time after its latest member
	slotAt   []float64 // per slot: aggregated arrival of its surviving feeders
	slotDied []float64 // per slot: latest death instant of its feeders
	// crashAt is the per-processor crash instant of this replay: -Inf
	// for a processor crashed from the start (a static crash set), +Inf
	// for one that never crashes.
	crashAt []float64
	// The latest replay evaluated ops from..done-1, and Extend
	// continues at done; every op before from kept its
	// fault-free fate. maxFin is the latest finish of an op alive in
	// the replay, -Inf when there is none.
	from, done int32
	maxFin     float64

	ff *faultFree // nil until the first timed replay (see buildFaultFree)
}

// faultFree is the fault-free pass of a wiring's static prefix, which
// later replays resume from. Checkpoint j holds the pass's state before
// op pos[j], the first at 0 and the last at the end of the
// prefix: each resource's free time, the latest alive finish so far,
// and the cut — every input slot of a replica at or after pos[j] that a
// transfer before pos[j] has fed, with its arrival. Every other slot a
// resumed pass reads is unfed, and nothing dies without a crash, so no
// slot has a feeder death to keep. The checkpoints hold
// checkpoints+1 resource vectors and cuts, each cut no larger than the
// slots: O(ops) memory for a fixed count.
type faultFree struct {
	x        []opRun // per static op: its fault-free fate
	lat      float64
	err      error
	pos      []int32
	maxFin   []float64
	resFree  []float64 // checkpoint j: resFree[j*NumRes : (j+1)*NumRes]
	cutBase  []int32   // checkpoint j: cutSlot/cutAt[cutBase[j]:cutBase[j+1]]
	cutSlot  []int32
	cutAt    []float64
	procBase []int32   // processor p: procOp/procMax[procBase[p]:procBase[p+1]]
	procOp   []int32   // the static ops touching p, ascending
	procMax  []float64 // running max of their fault-free finishes
}

// checkpoints is the number of evenly spaced checkpoints of the
// fault-free pass a resumed replay can start from (besides the end of
// the static prefix).
const checkpoints = 8

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
	r := &Replayer{w: w}
	r.x = make([]opRun, w.nOps0)
	r.resFree = make([]float64, w.NumRes())
	r.slotAt = make([]float64, w.nSlots0)
	r.slotDied = make([]float64, w.nSlots0)
	r.crashAt = make([]float64, w.S.P.Plat.M)
	return r
}

// fit sizes the per-op and per-slot scratch to the wiring's current
// length. An op appended after the static prefix evaluates after every
// static op: its constraints — its source replica, its feeding
// transfers, the previous holders of its resources — are all earlier
// ops, static or appended before it. The scratch keeps its capacity
// across Truncate, so replays whose appended ops fit it allocate
// nothing.
//
//caft:zeroalloc
func (r *Replayer) fit() {
	w := r.w
	for len(r.x) < len(w.Ops) {
		r.x = append(r.x, opRun{})
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

// start resets the scratch for a pass from the first op: every
// resource free at 0, every slot without an arrival or a feeder death.
// A replica starts at the first surviving arrival from each
// predecessor; last, used only by UpperBound, makes it wait for the
// last one instead, so its slots start at -Inf.
//
//caft:zeroalloc
func (r *Replayer) start(last bool) {
	for i := range r.resFree {
		r.resFree[i] = 0
	}
	none := math.Inf(1)
	if last {
		none = math.Inf(-1)
	}
	for i := range r.slotAt {
		r.slotAt[i] = none
		r.slotDied[i] = math.Inf(-1)
	}
	r.from, r.done, r.maxFin = 0, 0, math.Inf(-1)
}

// eval continues the pass over ops done..to-1 with the crash vector
// crashAt, deciding each op's liveness and times together.
// The pass is exact because every constraint points to an
// earlier-placed op — a resource's previous member, a transfer's source
// replica, a replica's feeding transfers (NewWiring rejects schedules
// where it does not) — so each op starts as early as its constraints
// allow.
//
// An op dies when it would finish more than sched.Eps after its crash
// instant (the earlier of crashAt at its two processors, Op.P and
// Op.Q) or loses its input: a transfer whose source replica is
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
// predecessor, or the last one under last (see start). No op starts
// before its Op.Floor.
//
//caft:zeroalloc
func (r *Replayer) eval(to int32, crashAt []float64, last bool) {
	w := r.w
	none := math.Inf(1)
	if last {
		none = math.Inf(-1)
	}
	for i := r.done; i < to; i++ {
		o := &w.Ops[i]
		x := &r.x[i]
		crash := min(crashAt[o.P], crashAt[o.Q])
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
				if x.finish > r.maxFin {
					r.maxFin = x.finish
				}
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
	r.done = to
}

// replay runs the first-arrival pass over the crash vector crashAt.
// The first replay with a timed crash (a finite instant) builds the
// fault-free pass; a replay of static crashes alone gains little from
// it, since a static crash changes the first op on its processor. Once
// the fault-free pass exists, replay copies its fates and resumes from
// its latest checkpoint at or before the first static op the crashes
// change (firstViolator): every op before that one keeps its
// fault-free fate bit for bit (DESIGN.md S7, "Resumed passes").
//
//caft:zeroalloc
func (r *Replayer) replay() {
	r.fit()
	if r.ff == nil && r.timed() {
		r.buildFaultFree() //caft:alloc-ok fault-free pass built once per Replayer, then reused
	}
	ff := r.ff
	if ff == nil {
		r.start(false)
		r.eval(int32(len(r.w.Ops)), r.crashAt, false)
		return
	}
	k := r.firstViolator()
	j := len(ff.pos) - 1
	for ff.pos[j] > k {
		j--
	}
	nRes := len(r.resFree)
	copy(r.x, ff.x)
	copy(r.resFree, ff.resFree[j*nRes:(j+1)*nRes])
	for i := range r.slotAt {
		r.slotAt[i] = math.Inf(1)
		r.slotDied[i] = math.Inf(-1)
	}
	for c := ff.cutBase[j]; c < ff.cutBase[j+1]; c++ {
		r.slotAt[ff.cutSlot[c]] = ff.cutAt[c]
	}
	r.from, r.done, r.maxFin = ff.pos[j], ff.pos[j], ff.maxFin[j]
	r.eval(int32(len(r.w.Ops)), r.crashAt, false)
}

// timed reports whether the crash vector holds a finite instant.
//
//caft:zeroalloc
func (r *Replayer) timed() bool {
	for _, c := range r.crashAt {
		if !math.IsInf(c, 0) {
			return true
		}
	}
	return false
}

// firstViolator returns the index of the first static op whose
// fault-free fate the crash vector changes, or the static prefix's
// length when it changes none. An op keeps its fault-free fate
// when its inputs do and its fault-free finish meets its deadline: its
// crash instant plus sched.Eps, where a transfer's instant is its
// earlier endpoint's. So the first changed op is the earliest, over the
// crashed processors p, of the first op touching p whose fault-free
// finish exceeds crashAt[p]+Eps, found by binary search over the
// running max of p's fault-free finishes. A crash at -Inf hits the
// first op on its processor.
//
//caft:zeroalloc
func (r *Replayer) firstViolator() int32 {
	ff := r.ff
	k := int32(r.w.nOps0)
	for p, c := range r.crashAt {
		if c == math.Inf(1) {
			continue
		}
		d := c + sched.Eps
		lo, hi := int(ff.procBase[p]), int(ff.procBase[p+1])
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); ff.procMax[mid] > d {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo < int(ff.procBase[p+1]) && ff.procOp[lo] < k {
			k = ff.procOp[lo]
		}
	}
	return k
}

// buildFaultFree runs the fault-free pass of the static prefix,
// keeping its fates, its latency, checkpoints+1 checkpoints and each
// processor's ops (see faultFree). The scratch is left at the end of
// that pass.
func (r *Replayer) buildFaultFree() {
	w := r.w
	n := int32(w.nOps0)
	nRes := len(r.resFree)
	ff := &faultFree{
		pos:     make([]int32, 0, checkpoints+1),
		maxFin:  make([]float64, 0, checkpoints+1),
		resFree: make([]float64, 0, (checkpoints+1)*nRes),
		cutBase: make([]int32, 1, checkpoints+2),
	}
	never := make([]float64, len(r.crashAt))
	for p := range never {
		never[p] = math.Inf(1)
	}
	r.start(false)
	for j := int32(0); j <= checkpoints; j++ {
		pos := j * n / checkpoints
		r.eval(pos, never, false)
		ff.pos = append(ff.pos, pos)
		ff.maxFin = append(ff.maxFin, r.maxFin)
		ff.resFree = append(ff.resFree, r.resFree...)
		for i := pos; i < n; i++ {
			o := &w.Ops[i]
			for sl := o.SlotBase; o.Kind == OpRep && sl < o.SlotBase+o.NSlots; sl++ {
				if a := r.slotAt[sl]; a != math.Inf(1) {
					ff.cutSlot = append(ff.cutSlot, sl)
					ff.cutAt = append(ff.cutAt, a)
				}
			}
		}
		ff.cutBase = append(ff.cutBase, int32(len(ff.cutSlot)))
	}
	ff.x = append([]opRun(nil), r.x[:n]...)
	// A fault-free pass that kills an op (an input slot no transfer
	// feeds) is never resumed: replays start at the first op, so the
	// ops a replay evaluates (Evaluated) include every op dead in it.
	for _, x := range ff.x {
		if !x.alive {
			ff.pos = ff.pos[:1]
			break
		}
	}
	ff.lat, ff.err = r.latency(true)

	// Each processor's ops in placement order: count, then fill.
	m := len(r.crashAt)
	ff.procBase = make([]int32, m+1)
	for _, o := range w.Ops[:n] {
		ff.procBase[o.P+1]++
		if o.Q != o.P {
			ff.procBase[o.Q+1]++
		}
	}
	for p := 0; p < m; p++ {
		ff.procBase[p+1] += ff.procBase[p]
	}
	ff.procOp = make([]int32, ff.procBase[m])
	ff.procMax = make([]float64, ff.procBase[m])
	next := append([]int32(nil), ff.procBase[:m]...)
	add := func(p, i int32) {
		k := next[p]
		next[p]++
		ff.procOp[k] = i
		ff.procMax[k] = ff.x[i].finish
		if k > ff.procBase[p] && ff.procMax[k-1] > ff.procMax[k] {
			ff.procMax[k] = ff.procMax[k-1]
		}
	}
	for i, o := range w.Ops[:n] {
		add(o.P, int32(i))
		if o.Q != o.P {
			add(o.Q, int32(i))
		}
	}
	r.ff = ff
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
// the start. Fate, Result, Latency and MaxFinish read the replay.
//
//caft:zeroalloc
func (r *Replayer) ReplayAt(crashAt []float64) {
	copy(r.crashAt, crashAt)
	r.replay()
}

// Extend continues the latest replay over the ops appended to the
// wiring since it ran, under the same crash vector, and evaluates only
// those. That is exact: an appended op evaluates after every earlier
// op (see fit), so the earlier ops' fates and the scratch they leave
// are the ones a full replay would reach it with. Fate, Result,
// Latency and MaxFinish read the extended replay.
//
//caft:zeroalloc
func (r *Replayer) Extend() {
	n := len(r.slotAt)
	r.fit()
	for sl := n; sl < len(r.slotAt); sl++ {
		r.slotAt[sl], r.slotDied[sl] = math.Inf(1), math.Inf(-1)
	}
	r.eval(int32(len(r.w.Ops)), r.crashAt, false)
}

// Evaluated returns the range [from, to) of the ops the latest replay
// evaluated; every other op kept its fault-free fate, alive.
//
//caft:zeroalloc
func (r *Replayer) Evaluated() (from, to int32) {
	return r.from, r.done
}

// MaxFinish returns the latest finish of an op alive in the latest
// replay, -Inf when none is.
//
//caft:zeroalloc
func (r *Replayer) MaxFinish() float64 {
	return r.maxFin
}

// FaultFree returns the latency of the wiring's static prefix replayed
// with no crashes, kept with the fault-free pass that timed replays
// resume from. The first call builds that pass if no timed replay has,
// and the latest replay is then the static prefix's fault-free one.
//
//caft:zeroalloc
func (r *Replayer) FaultFree() (float64, error) {
	if r.ff == nil {
		r.fit()
		r.buildFaultFree() //caft:alloc-ok fault-free pass built once per Replayer, then reused
	}
	return r.ff.lat, r.ff.err
}

// Replay recomputes the schedule's execution with the given processors
// crashed from the start (nil means no failures) and materializes every
// operation's fate into a fresh Result.
//
//caft:zeroalloc
func (r *Replayer) Replay(crashed map[int]bool) *Result {
	r.setCrashed(crashed)
	r.replay()
	return r.Result() //caft:alloc-ok the Result is the caller's one deliberate allocation
}

// Latency returns the latest replay's Result.Latency, computed directly
// from the scratch tables.
//
//caft:zeroalloc
func (r *Replayer) Latency() (float64, error) {
	return r.latency(false)
}

// latency is Latency over every replica, or over the static prefix's
// alone.
//
//caft:zeroalloc
func (r *Replayer) latency(static bool) (float64, error) {
	lat := 0.0
	for t, ops := range r.w.TaskOps {
		if static {
			ops = ops[:r.w.taskOps0[t]]
		}
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
	r.replay()
	return r.Latency()
}

// LowerBound replays with no crashes: the latency achieved if no
// processor fails. Once a timed replay has built the fault-free pass,
// the replay is that pass's fates, served without re-evaluating them.
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
	r.fit()
	r.start(true)
	r.eval(int32(len(r.w.Ops)), r.crashAt, true)
	lat := 0.0
	for i := range r.w.Ops {
		if x := &r.x[i]; r.w.Ops[i].Kind == OpRep && x.alive && x.finish > lat {
			lat = x.finish
		}
	}
	return lat, nil
}
