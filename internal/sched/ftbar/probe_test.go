package ftbar

import (
	"math/rand"
	"reflect"
	"testing"

	"caft/internal/dag"
	"caft/internal/sched"
	"caft/internal/timeline"
)

// snapshot copies what a duplicate probe must leave untouched.
type snapshot struct {
	reps  [][]sched.Replica
	comms []sched.Comm
	ivs   [][]timeline.Interval
}

func snap(st *sched.State) snapshot {
	var s snapshot
	for _, r := range st.Reps {
		s.reps = append(s.reps, append([]sched.Replica(nil), r...))
	}
	s.comms = append([]sched.Comm(nil), st.Comms...)
	for i := 0; i < st.NumTimelines(); i++ {
		s.ivs = append(s.ivs, st.Timeline(i).IntervalsCopy())
	}
	return s
}

// TestProbeWithDuplicateMatchesCloneReference checks the two-step
// duplicate probe against its reference, the same two PlaceReplica
// calls on an independent copy of the state rebuilt from its snapshot:
// on FTBAR states grown under both reservation policies, every (task,
// processor, predecessor) probe must return the same replica (or fail
// alike) and leave the replicas, transfers and timeline intervals
// unchanged.
func TestProbeWithDuplicateMatchesCloneReference(t *testing.T) {
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := randomProblem(rng, 25, 5)
			p.Policy = pol
			s, err := Schedule(p, 1, rng)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sched.StateOf(s)
			if err != nil {
				t.Fatal(err)
			}
			before := snap(st)
			probes := 0
			for task := 0; task < p.G.NumTasks(); task++ {
				tid := dag.TaskID(task)
				copy := len(st.Reps[tid])
				for proc := 0; proc < p.Plat.M; proc++ {
					for _, e := range p.G.Pred(tid) {
						pred := e.From
						rep, err := probeWithDuplicate(st, tid, copy, proc, pred, st.FullSources(tid), make([]sched.Replica, 1))
						if !reflect.DeepEqual(before, snap(st)) {
							t.Fatalf("%v/seed%d: probe of task %d on P%d with duplicate of %d mutated the state", pol, seed, tid, proc, pred)
						}
						ref, rebuildErr := sched.StateOf(st.Snapshot())
						if rebuildErr != nil {
							t.Fatal(rebuildErr)
						}
						var refRep sched.Replica
						_, refErr := ref.PlaceReplica(pred, len(ref.Reps[pred]), proc, ref.FullSources(pred))
						if refErr == nil {
							refRep, refErr = ref.PlaceReplica(tid, copy, proc, ref.FullSources(tid))
						}
						if (err != nil) != (refErr != nil) {
							t.Fatalf("%v/seed%d: task %d on P%d, duplicate of %d: error %v, rebuilt reference %v", pol, seed, tid, proc, pred, err, refErr)
						}
						if err != nil {
							continue
						}
						if rep != refRep {
							t.Fatalf("%v/seed%d: task %d on P%d, duplicate of %d = %+v, rebuilt reference %+v",
								pol, seed, tid, proc, pred, rep, refRep)
						}
						probes++
					}
				}
			}
			if probes == 0 {
				t.Fatalf("%v/seed%d: no duplicate probe succeeded", pol, seed)
			}
		}
	}
}
