// Package sim replays a static fault-tolerant schedule against a set of
// crashed processors and recomputes the actual execution times, the way
// Section 6 of the paper evaluates "the real execution time for a given
// schedule rather than just bounds".
//
// The replay keeps the per-resource order the scheduler committed to
// (executions per processor; transfers per send port, receive port and
// link), removes dead operations — replicas on crashed processors,
// replicas missing all inputs from some predecessor, and the messages of
// dead senders or to crashed receivers — and lets every surviving
// operation run as early as its constraints allow. Dropping a dead
// operation can therefore pull later operations earlier, and losing an
// early message can push a replica later; both directions are observed
// in the paper (Figures 1(b) and 2(b)) and reproduced here. Under timed
// crashes (Replayer.CrashLatencyAt) a dead operation holds its resources
// until its death is observable: the causal semantics of an executor
// that learns of a crash only when it happens.
//
// Replays are first-arrival: a replica starts once, for each
// predecessor, the earliest surviving message has arrived, so with zero
// crashes a replay reproduces the scheduler's own times (the latency
// lower bound). Replayer.UpperBound is the one last-arrival evaluation:
// with zero crashes, a replica waits for every message of every
// predecessor, and the completion of the last replica of any task is
// the paper's upper bound, the latency guaranteed even if ε processors
// fail.
//
// A schedule's constraints are built once into a Wiring — the op
// table in placement order, one input slot per (replica, predecessor
// edge), and the resources each op occupies; each op reaches its
// replica or transfer record by index. Every constraint points to an
// earlier-placed operation, so a Replayer evaluates a replay in one
// pass over the op table, front to back, deciding liveness and times
// together. Callers build one Replayer per schedule
// and replay it as often as they need; repeated replays reuse its
// scratch and allocate near-zero. The Replayer is the one evaluator:
// package online's engine appends its reactive placements to the
// wiring, each with a start floor, and replays it between crashes
// (ReplayAt, Fate).
//
//caft:deterministic
package sim

import (
	"errors"
	"fmt"
	"math"

	"caft/internal/dag"
	"caft/internal/sched"
)

// ErrTaskLost reports that a crash set killed every replica of some
// task. It distinguishes a genuine task loss (possible for the unsafe
// PaperLocking ablation, never for the resilient variants when at most
// ε processors crash) from an engine error, such as a NaN crash
// instant; test with errors.Is.
var ErrTaskLost = errors.New("task lost")

// Fate is the replayed fate of one operation. For Alive operations
// Start/Finish are the replayed times; a dead operation has zero
// times, in an online replay too, where an operation that had started
// before its crash records no aborted attempt.
type Fate struct {
	Alive    bool
	Reactive bool    // online: placed by the rescheduler at runtime
	PlacedAt float64 // online, reactive operations: the crash instant that placed them
	Start    float64
	Finish   float64
}

// RepOutcome is the replayed fate of one replica.
type RepOutcome struct {
	Rep sched.Replica
	Fate
}

// CommOutcome is the replayed fate of one communication.
type CommOutcome struct {
	Comm sched.Comm
	Fate
}

// Result holds the replayed times of every operation, of a clairvoyant
// replay (Replayer) or an online one (online.Engine). Reps[t] lists
// task t's replicas and Comms the transfers in placement order: the
// order of Schedule.Reps[t] and Schedule.Comms for every schedule
// sched.State builds, followed by an online replay's reactive
// placements. The online-only fields stay zero for clairvoyant replays.
type Result struct {
	Reps  [][]RepOutcome
	Comms []CommOutcome
	// TasksLost lists tasks with no surviving executed replica. Empty for
	// any schedule produced by a correct ε-fault-tolerant scheduler when
	// |Crashed| ≤ ε.
	TasksLost []dag.TaskID
	// Rescheduled counts reactively placed replicas (online).
	Rescheduled int
	// Crashes is the number of failure-trace events processed, Events the
	// number of executed operations (online).
	Crashes int
	Events  int
}

// Latency returns the latest time at which at least one replica of each
// task has been computed, or an error satisfying errors.Is(err,
// ErrTaskLost) naming a lost task.
func (r *Result) Latency() (float64, error) {
	if len(r.TasksLost) > 0 {
		return math.Inf(1), fmt.Errorf("sim: task %d lost (no surviving replica): %w", r.TasksLost[0], ErrTaskLost)
	}
	lat := 0.0
	for t := range r.Reps {
		min := math.Inf(1)
		for _, o := range r.Reps[t] {
			if o.Alive && o.Finish < min {
				min = o.Finish
			}
		}
		if min > lat {
			lat = min
		}
	}
	return lat, nil
}
