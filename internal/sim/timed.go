package sim

import (
	"fmt"
	"math"
)

// runTimed loads a failure trace into crashAt, rejecting a NaN crash
// instant, and runs the replay pass (see replay). It allocates nothing.
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
	r.replay()
	return nil
}

// ReplayTimed replays the schedule under timed fail-stop failures,
// reusing this Replayer's tables and scratch: each entry of crashTimes
// maps a processor to the instant it permanently stops; a NaN instant
// is an error. Work the processor completed before that instant
// survives — a replica counts as executed only if it finishes no later
// than the crash, and a message is delivered only if its transfer
// completes before both its sender's and its receiver's crash instants.
//
// The replay is causal, the pass online.Engine runs between crashes: a
// dead operation holds its resources until its death is
// observable (see run), so no survivor moves into a slot vacated before
// the crash that vacated it. A static crash (Replay) is the crash
// instant -Inf, which kills even an operation of zero length at time 0;
// crashing at 0 gives the same replay whenever no such operation runs
// there. Replay with no crashes is the special case of an empty map.
//
//caft:zeroalloc
func (r *Replayer) ReplayTimed(crashTimes map[int]float64) (*Result, error) {
	if err := r.runTimed(crashTimes); err != nil {
		return nil, err
	}
	return r.Result(), nil //caft:alloc-ok the Result is the caller's one deliberate allocation
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
	return r.Latency()
}
