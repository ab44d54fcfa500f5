// Package online executes a committed schedule as a causal, event-driven
// process and re-maps lost work while it runs — the reactive
// counterpart of package sim's clairvoyant replays (see DESIGN.md S7).
//
// The engine evaluates the same constraint graph as sim.Replayer — a
// sim.Wiring built once per schedule — but causally: it maintains a
// priority queue over two event kinds, operation completions (replica
// executions and communications finishing) and processor crashes (a
// failure trace, processor -> fail-stop instant). Operations start as
// soon as every constraint is resolved — the per-resource reservation
// order committed by the scheduler, the source replica of a transfer,
// and one input arrival per predecessor (first-arrival semantics).
//
// When a crash arrives at time tau, work that finished by tau survives;
// unfinished work on the crashed processor dies, along with everything
// transitively starved of inputs. The semantics is causal: a resource
// freed by a cancellation becomes available at tau, never earlier, and
// reactive re-placements may not start before tau — the past is never
// rewritten.
//
// With Options.Reschedule, each crash additionally triggers the
// reactive re-mapper: reservations of lost and unstarted work are
// cancelled on the engine's sched.State (its cancel machinery), and
// every task left without a finished-and-reachable or still-live
// replica is re-placed onto the surviving processors with HEFT-style
// minimum-finish probes (sched.State probes on the real state — no
// clones). After a replay that cancelled or placed work the engine
// copies a pristine state, kept since its first re-mapping replay, back
// into its working one (sched.State.CopyFrom), so the state is pristine
// after every Run, and a single Engine replays many traces — crashes,
// cancellations and reactive placements included — without allocating
// once its scratch has warmed up (TestOnlineEventAllocPin). Without
// re-mapping the engine computes exactly sim.Replayer.ReplayTimed's
// fates: static callers use the Replayer, and this mode stays as the
// reference the root TestOnlineStaticEquivalence pins it against bit
// for bit.
//
//caft:deterministic
package online

import (
	"fmt"
	"math"

	"caft/internal/sched"
	"caft/internal/sim"
)

type opState uint8

const (
	opPending opState = iota // some constraint unresolved
	opRunning                // start determined, completion queued
	opDone                   // finished; survives later crashes
	opDead                   // cancelled by a crash or starved of inputs
)

const noOp = sim.NoOp

// opRun is the per-replay state of one op of the engine's wiring.
type opRun struct {
	state    opState
	reactive bool
	waits    int32   // unresolved constraints
	acc      float64 // running max of resolved constraint values
	minStart float64 // causal floor (crash instant for reactive work)
	start    float64
	finish   float64
	placedAt float64 // reactive ops: the crash that placed them
}

// ev is one queued completion event.
type ev struct {
	t   float64
	seq int32
	idx int32
}

// crashEv is one failure-trace entry, processed in (time, proc) order.
type crashEv struct {
	tau  float64
	proc int
}

// Engine replays one schedule against failure traces. A single Engine
// builds the schedule's sim.Wiring once and reuses it and every scratch
// buffer across Run/Makespan calls; it is not safe for concurrent use.
//
//caft:confined
type Engine struct {
	w  *sim.Wiring // static prefix + this replay's reactive suffix
	m  int
	st *sched.State // rebuilt from the schedule; re-mapping works on it

	// pristine is st as rebuilt, built at the first re-mapping replay;
	// dirty records that this replay cancelled or placed work on st,
	// which then gets pristine copied back (see replay).
	pristine *sched.State
	dirty    bool

	ops      []opRun   // per op of w
	out      [][]int32 // per replica op: comm ops it feeds
	out0     []int32
	nextCopy []int32 // per task: copy index of its next reactive replica
	live     int     // ops pending or running

	// Per-replay resource state.
	nextIdx  []int32
	resAvail []float64
	holder   []int32 // op currently holding the resource token, -1 if free

	// Per-replay scratch.
	slotLeft    []int32
	slotDone    []bool
	taskDone    []bool
	taskFinish  []float64
	unrecover   []bool
	heap        []ev
	crashes     []crashEv
	deadList    []int32
	needList    []int32
	inNeed      []bool
	procDead    []bool
	sets        []sched.SourceSet // placeReactive: one set per predecessor
	srcs        []sched.Replica   // placeReactive: the sets' sources, back to back
	probes      []probe           // bestSurvivor: live candidates by (bound, proc)
	rescheduled int
	events      int
	remap       bool // this replay's Options.Reschedule
}

// NewEngine builds the scheduler state reactive placements extend and
// the wiring for s over the state's resource layout (see sched.StateOf
// and sim.NewWiring for the schedules they reject).
func NewEngine(s *sched.Schedule) (*Engine, error) {
	st, err := sched.StateOf(s)
	if err != nil {
		return nil, err
	}
	w, err := sim.NewWiring(s, st.Layout())
	if err != nil {
		return nil, err
	}
	e := &Engine{w: w, m: s.P.Plat.M, st: st}

	n0 := len(w.Ops)
	e.ops = make([]opRun, n0)
	e.out = make([][]int32, n0)
	for i := range w.Ops {
		if o := &w.Ops[i]; o.Kind == sim.OpComm {
			e.out[o.Src] = append(e.out[o.Src], int32(i))
		}
	}
	e.out0 = make([]int32, n0)
	for i := range e.out {
		e.out0[i] = int32(len(e.out[i]))
	}
	n := w.CG.NumTasks()
	nRes := len(w.Members)
	e.nextIdx = make([]int32, nRes)
	e.resAvail = make([]float64, nRes)
	e.holder = make([]int32, nRes)
	e.slotLeft = make([]int32, len(w.SlotOf))
	e.slotDone = make([]bool, len(w.SlotOf))
	e.taskDone = make([]bool, n)
	e.taskFinish = make([]float64, n)
	e.unrecover = make([]bool, n)
	e.nextCopy = make([]int32, n)
	e.inNeed = make([]bool, n)
	e.procDead = make([]bool, e.m)
	return e, nil
}

// waitsOf is op o's constraint count: its resources, plus its source
// replica (a transfer) or one arrival per input slot (a replica).
//
//caft:zeroalloc
func waitsOf(o *sim.Op) int32 {
	if o.Kind == sim.OpRep {
		return o.NRes + o.NSlots
	}
	return o.NRes + 1
}

// reset restores every dynamic table to the static prefix and loads the
// failure trace, rejecting a NaN crash instant. It allocates nothing
// once the scratch has warmed up.
//
//caft:zeroalloc
func (e *Engine) reset(trace map[int]float64) error {
	e.w.Truncate()
	n0, nSlots := len(e.w.Ops), len(e.w.SlotOf)
	e.ops = e.ops[:n0]
	e.out = e.out[:n0]
	e.slotLeft = e.slotLeft[:nSlots]
	e.slotDone = e.slotDone[:nSlots]
	for i := range e.ops {
		e.ops[i] = opRun{waits: waitsOf(&e.w.Ops[i])}
		e.out[i] = e.out[i][:e.out0[i]]
	}
	for t := range e.nextCopy {
		e.nextCopy[t] = int32(len(e.w.RepOf[t]))
		e.taskDone[t] = false
		e.taskFinish[t] = 0
		e.unrecover[t] = false
	}
	for r := range e.holder {
		e.nextIdx[r] = 0
		e.resAvail[r] = 0
		e.holder[r] = noOp
	}
	for s := range e.slotLeft {
		e.slotLeft[s] = e.w.SlotFeeds[s]
		e.slotDone[s] = false
	}
	for p := range e.procDead {
		e.procDead[p] = false
	}
	e.live = n0
	e.heap = e.heap[:0]
	e.deadList = e.deadList[:0]
	e.rescheduled = 0
	e.events = 0

	// Failure trace, sorted by (time, processor). The insertion sort
	// keeps the steady-state path allocation-free.
	e.crashes = e.crashes[:0]
	for p, tau := range trace { //caft:unordered-ok sorted by (time, proc) just below
		if math.IsNaN(tau) {
			return fmt.Errorf("online: crash instant of P%d is NaN", p) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		if p >= 0 && p < e.m {
			e.crashes = append(e.crashes, crashEv{tau: tau, proc: p})
		}
	}
	for i := 1; i < len(e.crashes); i++ {
		for j := i; j > 0; j-- {
			a, b := e.crashes[j-1], e.crashes[j]
			if b.tau < a.tau || (b.tau == a.tau && b.proc < a.proc) {
				e.crashes[j-1], e.crashes[j] = b, a
			} else {
				break
			}
		}
	}
	return nil
}

// exec runs the event loop: completions in time order, interleaved with
// the failure trace. The crash loop ends early once no op is live:
// every unfinished task is then already unrecoverable (each crash's
// re-mapper either re-placed or gave up on every task it left without
// a live replica), so the remaining crashes could kill, cancel and
// place nothing.
//
//caft:zeroalloc
func (e *Engine) exec() error {
	for r := range e.holder {
		e.releaseToken(int32(r), 0)
	}
	ci := 0
	for {
		tau := math.Inf(1)
		if ci < len(e.crashes) {
			tau = e.crashes[ci].tau
		}
		for len(e.heap) > 0 && e.heap[0].t <= tau+sched.Eps {
			top := e.pop()
			e.complete(top.idx)
		}
		if ci >= len(e.crashes) || e.live == 0 {
			break
		}
		if err := e.crash(e.crashes[ci].proc, tau); err != nil {
			return err
		}
		ci++
	}
	if e.live == 0 {
		return nil
	}
	for i := range e.ops {
		if st := e.ops[i].state; st == opPending || st == opRunning {
			return fmt.Errorf("online: event loop stalled with op %d (seq %d) unresolved", i, e.w.Ops[i].Seq) //caft:alloc-ok stalled-loop diagnostic; unreachable on a validated schedule
		}
	}
	return nil
}

// releaseToken frees resource r at time avail and grants it to the next
// non-dead member in placement order, resolving that member's chain
// constraint. With no member left the resource is marked free.
//
//caft:zeroalloc
func (e *Engine) releaseToken(r int32, avail float64) {
	if avail > e.resAvail[r] {
		e.resAvail[r] = avail
	}
	members := e.w.Members[r]
	for e.nextIdx[r] < int32(len(members)) {
		i := members[e.nextIdx[r]]
		e.nextIdx[r]++
		if e.ops[i].state == opDead {
			continue
		}
		e.holder[r] = i
		e.resolve(i, e.resAvail[r])
		return
	}
	e.holder[r] = noOp
}

// resolve folds one constraint value into op i and starts it when it
// was the last one outstanding.
//
//caft:zeroalloc
func (e *Engine) resolve(i int32, v float64) {
	o := &e.ops[i]
	if o.state != opPending {
		return
	}
	if v > o.acc {
		o.acc = v
	}
	o.waits--
	if o.waits == 0 {
		o.start = o.acc
		if o.minStart > o.start {
			o.start = o.minStart
		}
		w := &e.w.Ops[i]
		o.finish = o.start + w.Dur
		o.state = opRunning
		e.push(ev{t: o.finish, seq: w.Seq, idx: i})
	}
}

// complete finishes op i: releases its resource tokens, marks its task
// computed (first completion wins) and resolves dependent constraints.
// Events of lazily cancelled (dead) ops are skipped.
//
//caft:zeroalloc
func (e *Engine) complete(i int32) {
	o := &e.ops[i]
	if o.state != opRunning {
		return
	}
	o.state = opDone
	e.live--
	e.events++
	w := &e.w.Ops[i]
	for k := w.ResBase; k < w.ResBase+w.NRes; k++ {
		r := e.w.ResIDs[k]
		if e.holder[r] == i {
			e.releaseToken(r, o.finish)
		}
	}
	if w.Kind == sim.OpRep {
		if t := w.Rep.Task; !e.taskDone[t] {
			e.taskDone[t] = true
			e.taskFinish[t] = o.finish
		}
		for _, j := range e.out[i] {
			e.resolve(j, o.finish)
		}
		return
	}
	for k := w.FeedBase; k < w.FeedBase+w.NFeeds; k++ {
		s := e.w.Feeds[k]
		if !e.slotDone[s] {
			e.slotDone[s] = true
			e.resolve(e.w.SlotOf[s], o.finish)
		}
	}
}

// kill marks op i dead if it has not finished, recording it for the
// crash's cascade and token-release phases.
//
//caft:zeroalloc
func (e *Engine) kill(i int32) {
	o := &e.ops[i]
	if o.state != opPending && o.state != opRunning {
		return
	}
	o.state = opDead
	e.live--
	e.deadList = append(e.deadList, i)
}

// crash processes the fail-stop of processor q at time tau: direct
// victims die, starvation cascades, freed resources re-open at tau (the
// causal clamp), and — with rescheduling enabled — lost work is
// re-mapped onto the survivors.
//
//caft:zeroalloc
func (e *Engine) crash(q int, tau float64) error {
	e.procDead[q] = true
	e.deadList = e.deadList[:0]
	// Phase 1: unfinished work occupying q.
	for i := range e.ops {
		if st := e.ops[i].state; st != opPending && st != opRunning {
			continue
		}
		w := &e.w.Ops[i]
		if w.Kind == sim.OpRep && w.Rep.Proc == q || w.Kind == sim.OpComm && (w.Comm.SrcProc == q || w.Comm.DstProc == q) {
			e.kill(int32(i))
		}
	}
	// Phase 2: starvation cascade. A dead replica takes its unfinished
	// transfers with it; a slot with no live feeder left starves its
	// replica.
	for k := 0; k < len(e.deadList); k++ {
		i := e.deadList[k]
		w := &e.w.Ops[i]
		if w.Kind == sim.OpRep {
			for _, j := range e.out[i] {
				e.kill(j)
			}
			continue
		}
		for f := w.FeedBase; f < w.FeedBase+w.NFeeds; f++ {
			s := e.w.Feeds[f]
			if e.slotDone[s] {
				continue
			}
			e.slotLeft[s]--
			if e.slotLeft[s] == 0 {
				e.kill(e.w.SlotOf[s])
			}
		}
	}
	// Phase 3: resources held by the dead re-open at tau — never
	// earlier; the crash is only observable at tau.
	for _, i := range e.deadList {
		w := &e.w.Ops[i]
		for k := w.ResBase; k < w.ResBase+w.NRes; k++ {
			r := e.w.ResIDs[k]
			if e.holder[r] == i {
				e.releaseToken(r, tau)
			}
		}
	}
	if e.remap {
		return e.reschedule(tau)
	}
	return nil
}

// push/pop implement the completion-event min-heap, ordered by time
// with the placement sequence as the deterministic tie break.
//
//caft:zeroalloc
func (e *Engine) push(v ev) {
	e.heap = append(e.heap, v)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

//caft:zeroalloc
func (e *Engine) pop() ev {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && evLess(e.heap[l], e.heap[small]) {
			small = l
		}
		if r < n && evLess(e.heap[r], e.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		e.heap[i], e.heap[small] = e.heap[small], e.heap[i]
		i = small
	}
	return top
}

//caft:zeroalloc
func evLess(a, b ev) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}
