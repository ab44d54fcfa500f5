// Package online executes a committed schedule under a failure trace
// and re-maps lost work while it runs — the reactive counterpart of
// package sim's clairvoyant replays (see DESIGN.md S7).
//
// The engine evaluates the schedule with one sim.Replayer over a
// sim.Wiring built once per schedule, numbered by the layout of the
// scheduler state it rebuilds (sched.StateOf). A failure trace maps
// processors to fail-stop instants. Work that finished by a crash
// instant survives it; unfinished work on the crashed processor dies,
// along with everything transitively starved of inputs. The semantics
// is causal: a resource freed by a death becomes available at the
// crash instant, never earlier, and reactive re-placements may not
// start before the crash that placed them — the past is never
// rewritten. Without re-mapping a replay is one timed Replayer pass.
//
// With Options.Reschedule the engine starts from the fault-free pass,
// which the Replayer keeps, and takes the crashes in (time, processor)
// order. A crash at τ kills only work unfinished at τ and frees nothing
// before τ, so a pass over the crashes seen so far splits every op
// exactly as a causal executor sees it at τ: done (alive and finishing
// by τ+sched.Eps), live (alive and finishing later) or dead. Each pass
// resumes where its crashes first change the fault-free run. The
// re-mapper cancels the newly dead on the engine's sched.State —
// records, and the reservations a survivor can still see — and
// re-places every task left without a live replica or a done replica
// whose data is still reachable onto the surviving processors, with
// HEFT-style minimum-finish probes (sched.State probes on the real
// state — no clones). Its placements join the wiring with τ as their
// start floor, and the pass is extended over them. The engine stops at
// the first crash that finds no live op, and Makespan answers a trace
// with no crash before the fault-free latency with that latency.
//
// After a replay that cancelled or placed work the engine copies a
// pristine state, kept since its first re-mapping replay, back into its
// working one (sched.State.CopyFrom), so the state is pristine after
// every Run, and a single Engine replays many traces — crashes,
// cancellations and reactive placements included — without allocating
// once its scratch has warmed up (TestOnlineEventAllocPin).
//
//caft:deterministic
package online

import (
	"fmt"
	"math"

	"caft/internal/sched"
	"caft/internal/sim"
)

// crashEv is one failure-trace entry, processed in (time, proc) order.
type crashEv struct {
	tau  float64
	proc int
}

// Engine replays one schedule against failure traces. A single Engine
// builds the schedule's sim.Wiring and Replayer once and reuses them
// and every scratch buffer across Run/Makespan calls; it is not safe
// for concurrent use.
//
//caft:confined
type Engine struct {
	w   *sim.Wiring   // static prefix + this replay's reactive suffix
	rep *sim.Replayer // over w
	m   int
	st  *sched.State // rebuilt from the schedule; re-mapping works on it

	// pristine is st as rebuilt, built at the first re-mapping replay;
	// dirty records that this replay cancelled or placed work on st,
	// which then gets pristine copied back (see run).
	pristine *sched.State
	dirty    bool

	// crashAt is the per-processor crash instant of the crashes taken
	// so far, +Inf for a processor still up.
	crashAt   []float64
	crashes   []crashEv
	cancelled []bool  // per op of w: dead in a pass, its reservations cancelled on st
	nextCopy  []int32 // per task: copy index of its next reactive replica

	// Re-mapper scratch.
	unrecover   []bool
	needList    []int32
	inNeed      []bool
	sets        []sched.SourceSet // placeReactive: one set per predecessor
	srcs        []sched.Replica   // placeReactive: the sets' sources, back to back
	probes      []probe           // bestSurvivor: live candidates by (bound, proc)
	rescheduled int
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
	n := w.CG.NumTasks()
	return &Engine{
		w: w, rep: sim.NewReplayerOf(w), m: s.P.Plat.M, st: st,
		crashAt:   make([]float64, s.P.Plat.M),
		cancelled: make([]bool, len(w.Ops)),
		nextCopy:  make([]int32, n),
		unrecover: make([]bool, n),
		inNeed:    make([]bool, n),
	}, nil
}

// reset restores the wiring to its static prefix, clears the per-replay
// tables and loads the failure trace, rejecting a NaN crash instant. It
// allocates nothing once the scratch has warmed up.
//
//caft:zeroalloc
func (e *Engine) reset(trace map[int]float64) error {
	e.w.Truncate()
	e.cancelled = e.cancelled[:len(e.w.Ops)]
	for i := range e.cancelled {
		e.cancelled[i] = false
	}
	for t := range e.nextCopy {
		e.nextCopy[t] = int32(len(e.w.RepOf[t]))
		e.unrecover[t] = false
	}
	for p := range e.crashAt {
		e.crashAt[p] = math.Inf(1)
	}
	e.rescheduled = 0

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

// exec replays the loaded trace. Without re-mapping that is one pass
// over every crash. With it, the fault-free pass comes first, served
// from the Replayer's cached one. Then each crash at τ adds itself to
// the crash vector for one pass, resumed where the crashes change the
// fault-free run, runs the re-mapper on that pass, and extends the pass
// over the placed work when the re-mapper placed any. The loop stops
// at the first crash that finds no live op: every unfinished task is
// then already unrecoverable (each crash's re-mapper re-placed or gave
// up on every task it left without a live replica), so the remaining
// crashes could kill, cancel and place nothing.
//
//caft:zeroalloc
func (e *Engine) exec(remap bool) error {
	if !remap {
		for _, c := range e.crashes {
			e.crashAt[c.proc] = c.tau
		}
		e.rep.ReplayAt(e.crashAt)
		return nil
	}
	e.rep.ReplayAt(e.crashAt)
	for _, c := range e.crashes {
		if e.rep.MaxFinish() <= c.tau+sched.Eps {
			break // no op is live at τ
		}
		e.crashAt[c.proc] = c.tau
		e.rep.ReplayAt(e.crashAt)
		placed := e.rescheduled
		if err := e.reschedule(c.tau); err != nil {
			return err
		}
		if e.rescheduled > placed {
			e.rep.Extend()
		}
	}
	return nil
}

// live reports whether op i of the latest pass is alive and finishes
// after tau+sched.Eps, the instant up to which a crash at tau lets work
// complete.
//
//caft:zeroalloc
func (e *Engine) live(i int32, tau float64) bool {
	f := e.rep.Fate(i)
	return f.Alive && f.Finish > tau+sched.Eps
}

// done reports whether op i of the latest pass is alive and finishes by
// tau+sched.Eps.
//
//caft:zeroalloc
func (e *Engine) done(i int32, tau float64) bool {
	f := e.rep.Fate(i)
	return f.Alive && f.Finish <= tau+sched.Eps
}

// down reports whether processor p has crashed in the crashes taken so
// far.
//
//caft:zeroalloc
func (e *Engine) down(p int) bool {
	return e.crashAt[p] < math.Inf(1)
}
