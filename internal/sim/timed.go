package sim

import (
	"fmt"
	"math"
)

// CrashLatencyAt replays the schedule under timed fail-stop failures
// and returns the achieved latency without materializing a Result: the
// Monte-Carlo entry point of the reliability experiments. Each entry of
// crashTimes maps a processor to the instant it permanently stops.
// Work the processor completed before that instant survives: a replica
// counts as executed only if it finishes no later than the crash, and
// a message is delivered only if its transfer completes before both
// its sender's and its receiver's crash instants. Fate and Result read
// the replay afterwards.
//
// The replay is causal, the pass online.Engine runs between crashes: a
// dead operation holds its resources until its death is observable
// (see eval), so no survivor moves into a slot vacated before the
// crash that vacated it. A static crash (Replay) is the crash instant
// -Inf, which kills even an operation of zero length at time 0;
// crashing at 0 gives the same replay whenever no such operation runs
// there. An empty map replays with no crashes.
//
// A steady-state call allocates nothing. A lost task reports an error
// satisfying errors.Is(err, ErrTaskLost); a NaN crash instant is an
// error too.
//
//caft:zeroalloc
func (r *Replayer) CrashLatencyAt(crashTimes map[int]float64) (float64, error) {
	for i := range r.crashAt {
		r.crashAt[i] = math.Inf(1)
	}
	for p, tau := range crashTimes { //caft:unordered-ok dense store, one slot per key
		if math.IsNaN(tau) {
			return 0, fmt.Errorf("sim: crash instant of P%d is NaN", p) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		if p >= 0 && p < len(r.crashAt) {
			r.crashAt[p] = tau
		}
	}
	r.replay()
	return r.Latency()
}
