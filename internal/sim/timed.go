package sim

import (
	"fmt"
	"math"

	"caft/internal/sched"
)

// runTimed grows the dead set of the timed-crash fixpoint on the
// Replayer's scratch buffers: crashTimes is walked once into the dense
// per-processor crashAt table, per-op deadlines are loaded from it,
// then replay passes run until no surviving operation violates its
// deadline. A NaN crash instant is rejected before any pass. It
// allocates nothing.
//
//caft:zeroalloc
func (r *Replayer) runTimed(crashTimes map[int]float64) error {
	for i := range r.crashAt {
		r.crashAt[i] = math.Inf(1)
	}
	for p, tau := range crashTimes { //caft:unordered-ok dense store, one slot per key
		if math.IsNaN(tau) {
			return fmt.Errorf("sim: crash instant of P%d is NaN", p) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		if p >= 0 && p < len(r.crashAt) {
			r.crashAt[p] = tau
		}
	}
	for i := range r.w.Ops {
		r.dead[i] = false
		o := &r.w.Ops[i]
		var d float64
		if o.Kind == OpRep {
			d = r.crashAt[o.Rep.Proc]
		} else {
			// A transfer must complete before both endpoints crash.
			d = r.crashAt[o.Comm.SrcProc]
			if tau := r.crashAt[o.Comm.DstProc]; tau < d {
				d = tau
			}
		}
		r.deadline[i] = d
	}
	limit := len(r.w.Ops) + 2
	for iter := 0; iter < limit; iter++ {
		r.run(false, r.dead)
		changed := false
		for i := range r.x {
			if x := &r.x[i]; x.alive && x.finish > r.deadline[i]+sched.Eps {
				r.dead[i] = true
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("sim: timed-crash fixpoint did not converge") //caft:alloc-ok non-convergence diagnostic; unreachable on a well-formed schedule
}

// ReplayTimed replays the schedule under timed fail-stop failures,
// reusing this Replayer's tables and scratch: each entry of crashTimes
// maps a processor to the instant it permanently stops; a NaN instant
// is an error. Work the
// processor completed before that instant survives — a replica counts
// as executed only if it finishes no later than the crash, and a
// message is delivered only if its transfer completes before both its
// sender's and its receiver's crash instants.
//
// A static crash (Replay) is the crash instant -Inf, which kills even
// an operation of zero length at time 0; crashing at 0 gives the same
// replay whenever no such operation runs there. Replay with no crashes
// is the special case of an empty map. Timed semantics require a
// fixpoint: killing an operation frees its resources, which can pull
// other operations earlier and let them beat the deadline, so the dead
// set is grown iteratively — starting from the optimistic
// no-extra-deaths schedule — until no surviving operation violates a
// crash instant. Each round is one placement-order replay pass that
// kills every violator at once, including an operation that misses its
// deadline only because an earlier violator of the same pass still held
// its resource. The result is therefore not the least dead set: killing
// violators one by one inside a pass would spare such operations.
//
//caft:zeroalloc
func (r *Replayer) ReplayTimed(crashTimes map[int]float64) (*Result, error) {
	if err := r.runTimed(crashTimes); err != nil {
		return nil, err
	}
	return r.materialize(), nil //caft:alloc-ok the Result is the caller's one deliberate allocation
}

// CrashLatencyAt replays timed crashes and returns the achieved latency
// without materializing a Result — the Monte-Carlo entry point of the
// reliability experiments; a steady-state call allocates nothing. A lost task reports an error
// satisfying errors.Is(err, ErrTaskLost); a NaN crash instant is an
// error too.
//
//caft:zeroalloc
func (r *Replayer) CrashLatencyAt(crashTimes map[int]float64) (float64, error) {
	if err := r.runTimed(crashTimes); err != nil {
		return 0, err
	}
	return r.latency()
}
