package simtest

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"caft/internal/sched"
	"caft/internal/sim"
)

// EventReplay replays s under a failure trace (processor -> crash
// instant; processors absent from the map never fail, entries outside
// [0, m) are ignored, a NaN instant is an error) as a causal event
// process, the independent reference sim.Replayer's timed pass is
// pinned against. It shares only the op table of sim.NewWiring and
// builds its own member chains and slot owners from it.
//
// Every op waits on its constraints: one token per occupied resource,
// handed along the resource's members in placement order (placement
// sequence, ties by op index) and skipping dead members; its source
// replica (a transfer); one arrival per input slot (a replica, first
// arrival). It starts at the latest of them and completes at start plus
// duration, in a completion heap ordered by (time, sequence). The trace
// is taken in (time, processor) order, after every completion due by
// the crash instant plus sched.Eps, in three phases: the unfinished ops
// occupying the processor die; death cascades, a dead replica killing
// its unfinished transfers and a slot left without a live feeder
// starving its replica; every resource a dead op held re-opens at the
// crash instant, never earlier. Dead ops report zero times, as the
// Replayer's do; Result.Events counts completions.
func EventReplay(s *sched.Schedule, trace map[int]float64) (*sim.Result, error) {
	w, err := sim.NewWiring(s, sched.NewLayout(s.P))
	if err != nil {
		return nil, err
	}
	type crash struct {
		tau  float64
		proc int
	}
	var crashes []crash
	for p, tau := range trace {
		if math.IsNaN(tau) {
			return nil, fmt.Errorf("simtest: crash instant of P%d is NaN", p)
		}
		if p >= 0 && p < s.P.Plat.M {
			crashes = append(crashes, crash{tau, p})
		}
	}
	sort.Slice(crashes, func(a, b int) bool {
		if crashes[a].tau != crashes[b].tau {
			return crashes[a].tau < crashes[b].tau
		}
		return crashes[a].proc < crashes[b].proc
	})
	e := newEventRun(w)
	for r := range e.members {
		e.releaseToken(int32(r), 0)
	}
	ci := 0
	for {
		tau := math.Inf(1)
		if ci < len(crashes) {
			tau = crashes[ci].tau
		}
		for e.queue.Len() > 0 && e.queue.evs[0].t <= tau+sched.Eps {
			e.complete(heap.Pop(&e.queue).(completion).op)
		}
		if ci >= len(crashes) || e.live == 0 {
			break
		}
		e.crash(crashes[ci].proc, tau)
		ci++
	}
	if e.live != 0 {
		return nil, fmt.Errorf("simtest: event replay stalled with %d ops unresolved", e.live)
	}
	res := w.Result(func(i int32) sim.Fate {
		if e.state[i] != opDone {
			return sim.Fate{}
		}
		return sim.Fate{Alive: true, Start: e.start[i], Finish: e.start[i] + w.Ops[i].Dur}
	})
	res.Crashes, res.Events = len(crashes), e.events
	return res, nil
}

type opState uint8

const (
	opPending opState = iota // some constraint unresolved
	opRunning                // start determined, completion queued
	opDone                   // finished; survives later crashes
	opDead                   // killed by a crash or starved of inputs
)

// eventRun is the state of one EventReplay.
//
//caft:confined
type eventRun struct {
	w     *sim.Wiring
	seq   []int32   // per op: its record's placement sequence
	state []opState // per op
	waits []int32   // per op: unresolved constraints
	start []float64 // per op: running max of resolved constraints, then the start
	out   [][]int32 // per replica op: the transfers it sources

	members  [][]int32 // per resource: member ops in placement order
	nextIdx  []int     // per resource: next member to hand the token to
	resAvail []float64 // per resource: instant it is free
	holder   []int32   // per resource: op holding the token, sim.NoOp if free

	slotOf   []int32 // per slot: owning replica op
	slotLeft []int32 // per slot: feeders not yet dead
	slotDone []bool  // per slot: a feeder delivered

	queue  completions
	dead   []int32 // ops killed by the current crash
	live   int     // ops pending or running
	events int     // completions
}

func newEventRun(w *sim.Wiring) *eventRun {
	n := len(w.Ops)
	e := &eventRun{
		w: w, seq: make([]int32, n), state: make([]opState, n), waits: make([]int32, n), start: make([]float64, n),
		out: make([][]int32, n), members: make([][]int32, w.NumRes()), live: n,
		slotOf: make([]int32, w.Slots), slotLeft: make([]int32, w.Slots), slotDone: make([]bool, w.Slots),
	}
	for i := range w.Ops {
		o := &w.Ops[i]
		e.waits[i] = o.NRes + 1
		if o.Kind == sim.OpRep {
			e.seq[i] = w.Rep(int32(i)).Seq
			e.waits[i] = o.NRes + o.NSlots
			for sl := o.SlotBase; sl < o.SlotBase+o.NSlots; sl++ {
				e.slotOf[sl] = int32(i)
			}
		} else {
			e.seq[i] = w.Comm(int32(i)).Seq
			e.out[o.Src] = append(e.out[o.Src], int32(i))
			for _, sl := range w.Feeds[o.FeedBase : o.FeedBase+o.NFeeds] {
				e.slotLeft[sl]++
			}
		}
		for _, r := range w.ResIDs[o.ResBase : o.ResBase+o.NRes] {
			e.members[r] = append(e.members[r], int32(i))
		}
	}
	for _, mem := range e.members {
		sort.SliceStable(mem, func(a, b int) bool { return e.seq[mem[a]] < e.seq[mem[b]] })
	}
	e.nextIdx = make([]int, len(e.members))
	e.resAvail = make([]float64, len(e.members))
	e.holder = make([]int32, len(e.members))
	return e
}

// releaseToken frees resource r at instant avail (never earlier than it
// already was) and hands it to its next member that is not dead.
func (e *eventRun) releaseToken(r int32, avail float64) {
	e.resAvail[r] = math.Max(e.resAvail[r], avail)
	for mem := e.members[r]; e.nextIdx[r] < len(mem); {
		i := mem[e.nextIdx[r]]
		e.nextIdx[r]++
		if e.state[i] != opDead {
			e.holder[r] = i
			e.resolve(i, e.resAvail[r])
			return
		}
	}
	e.holder[r] = sim.NoOp
}

// resolve folds one constraint value into op i and queues its
// completion once the last one is resolved.
func (e *eventRun) resolve(i int32, v float64) {
	if e.state[i] != opPending {
		return
	}
	e.start[i] = math.Max(e.start[i], v)
	if e.waits[i]--; e.waits[i] == 0 {
		e.state[i] = opRunning
		o := &e.w.Ops[i]
		heap.Push(&e.queue, completion{t: e.start[i] + o.Dur, seq: e.seq[i], op: i})
	}
}

// complete finishes op i unless a crash killed it: it hands its tokens
// on and resolves the ops waiting for its output.
func (e *eventRun) complete(i int32) {
	if e.state[i] != opRunning {
		return
	}
	e.state[i] = opDone
	e.live--
	e.events++
	o := &e.w.Ops[i]
	finish := e.start[i] + o.Dur
	for _, r := range e.w.ResIDs[o.ResBase : o.ResBase+o.NRes] {
		if e.holder[r] == i {
			e.releaseToken(r, finish)
		}
	}
	if o.Kind == sim.OpRep {
		for _, j := range e.out[i] {
			e.resolve(j, finish)
		}
		return
	}
	for _, sl := range e.w.Feeds[o.FeedBase : o.FeedBase+o.NFeeds] {
		if !e.slotDone[sl] {
			e.slotDone[sl] = true
			e.resolve(e.slotOf[sl], finish)
		}
	}
}

// kill marks op i dead unless it has finished.
func (e *eventRun) kill(i int32) {
	if e.state[i] == opPending || e.state[i] == opRunning {
		e.state[i] = opDead
		e.live--
		e.dead = append(e.dead, i)
	}
}

// crash processes the fail-stop of processor q at tau.
func (e *eventRun) crash(q int, tau float64) {
	e.dead = e.dead[:0]
	for i := range e.w.Ops {
		if a, b := e.procs(int32(i)); a == q || b == q {
			e.kill(int32(i))
		}
	}
	for k := 0; k < len(e.dead); k++ {
		i := e.dead[k]
		o := &e.w.Ops[i]
		if o.Kind == sim.OpRep {
			for _, j := range e.out[i] {
				e.kill(j)
			}
			continue
		}
		for _, sl := range e.w.Feeds[o.FeedBase : o.FeedBase+o.NFeeds] {
			if !e.slotDone[sl] {
				if e.slotLeft[sl]--; e.slotLeft[sl] == 0 {
					e.kill(e.slotOf[sl])
				}
			}
		}
	}
	for _, i := range e.dead {
		o := &e.w.Ops[i]
		for _, r := range e.w.ResIDs[o.ResBase : o.ResBase+o.NRes] {
			if e.holder[r] == i {
				e.releaseToken(r, tau)
			}
		}
	}
}

// procs returns the processors of op i's record: its replica's twice,
// or its transfer's sender and receiver.
func (e *eventRun) procs(i int32) (a, b int) {
	if e.w.Ops[i].Kind == sim.OpRep {
		p := e.w.Rep(i).Proc
		return p, p
	}
	c := e.w.Comm(i)
	return c.SrcProc, c.DstProc
}

// completion is one queued op completion.
type completion struct {
	t   float64
	seq int32
	op  int32
}

// completions is a min-heap of completions by (time, sequence).
type completions struct{ evs []completion }

func (q *completions) Len() int { return len(q.evs) }
func (q *completions) Less(a, b int) bool {
	if q.evs[a].t != q.evs[b].t {
		return q.evs[a].t < q.evs[b].t
	}
	return q.evs[a].seq < q.evs[b].seq
}
func (q *completions) Swap(a, b int) { q.evs[a], q.evs[b] = q.evs[b], q.evs[a] }
func (q *completions) Push(x any)    { q.evs = append(q.evs, x.(completion)) }
func (q *completions) Pop() any {
	n := len(q.evs) - 1
	top := q.evs[n]
	q.evs = q.evs[:n]
	return top
}
