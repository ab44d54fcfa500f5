package online

import (
	"caft/internal/sched"
	"caft/internal/sim"
)

// Options configures one replay.
type Options struct {
	// Reschedule enables the reactive re-mapper: on each crash, lost and
	// unstarted work is cancelled and re-placed onto the surviving
	// processors. Every production replay sets it; false replays the
	// static fate in one sim.Replayer pass.
	Reschedule bool
}

// replay resets the engine, loads the trace and replays it (see run).
//
//caft:zeroalloc
func (e *Engine) replay(trace map[int]float64, opt Options) error {
	if err := e.reset(trace); err != nil {
		return err
	}
	return e.run(opt)
}

// run replays the loaded trace. With rescheduling enabled the run
// cancels and places work on the rebuilt state; whenever it did, the
// pristine copy is copied back, so the engine is pristine for the next
// replay, on errors too. The copy costs Θ(schedule size), the order of
// one replay pass.
//
//caft:zeroalloc
func (e *Engine) run(opt Options) error {
	if opt.Reschedule && e.pristine == nil {
		e.pristine = sched.NewState(e.st.P) //caft:alloc-ok pristine copy built once per Engine, at its first re-mapping replay
		e.pristine.CopyFrom(e.st)
	}
	err := e.exec(opt.Reschedule)
	if e.dirty {
		e.st.CopyFrom(e.pristine)
		e.dirty = false
	}
	return err
}

// Run replays the schedule against a failure trace (processor -> crash
// instant; processors absent from the map never fail, entries outside
// [0, m) are ignored, matching sim's crash-set handling, and a NaN
// instant is an error) and materializes the full outcome: the final
// pass's fates, reactive placements appended as sim.Result documents,
// and Events the number of executed operations. An empty trace
// reproduces sim.Replayer's no-crash replay bit for bit.
func (e *Engine) Run(trace map[int]float64, opt Options) (*sim.Result, error) {
	if err := e.replay(trace, opt); err != nil {
		return nil, err
	}
	res := e.rep.Result()
	for i := range e.w.Ops {
		if e.rep.Fate(int32(i)).Alive {
			res.Events++
		}
	}
	res.Rescheduled, res.Crashes = e.rescheduled, len(e.crashes)
	return res, nil
}

// Makespan replays the trace and returns the achieved latency (the
// completion time of the last task, by its earliest finished replica)
// and the number of reactively placed replicas, without materializing a
// Result — the Monte-Carlo entry point; a steady-state call allocates
// nothing. A task that never completes reports an error satisfying
// errors.Is(err, sim.ErrTaskLost); a NaN crash instant is an error too.
//
// A trace with no crash before the fault-free latency replays no pass:
// the answer is the fault-free latency with nothing re-placed, with
// re-mapping or without (DESIGN.md S7).
//
//caft:zeroalloc
func (e *Engine) Makespan(trace map[int]float64, opt Options) (float64, int, error) {
	if err := e.reset(trace); err != nil {
		return 0, 0, err
	}
	if lat, err := e.rep.FaultFree(); len(e.crashes) == 0 || e.crashes[0].tau >= lat {
		return lat, 0, err
	}
	if err := e.run(opt); err != nil {
		return 0, 0, err
	}
	lat, err := e.rep.Latency()
	return lat, e.rescheduled, err
}
