// Package ftbar implements FTBAR (Fault Tolerance Based Active
// Replication) of Girault, Kalla, Sighireanu, Sorel (DSN'03), the second
// baseline of the CAFT paper, adapted to the one-port model as described
// in Section 4.3 of the paper.
//
// FTBAR is built on the schedule-pressure list scheduler of Sorel's
// "algorithm architecture adequation": at step n, for every free task ti
// and processor pj the schedule pressure
//
//	σ(n)(ti,pj) = S(n)(ti,pj) + s̄(ti) − R(n−1)
//
// measures how much scheduling ti on pj would lengthen the schedule,
// where S is the earliest start time of ti on pj, s̄ the static
// bottom-up latest start (we use the bottom level bℓ(ti), the remaining
// path to an exit), and R(n−1) the schedule length after the previous
// step. Each free task selects the Npf+1 processors minimizing its
// pressure, the most urgent (task, processor) pair — the one with the
// maximum pressure among those selected sets — wins, and the winning
// task is replicated on its Npf+1 processors. Like FTSA, every replica
// of a predecessor communicates with every replica of its successors.
//
// FTBAR additionally applies the Minimize-Start-Time procedure of
// Ahmad and Kwok: after selecting the processor of a replica, it checks
// whether duplicating the replica's critical predecessor — the one
// whose message gates its start time — onto the same processor would
// let the replica start earlier, and commits the duplication when it
// does. We implement the single-level (non-recursive) variant; see
// DESIGN.md S3.
//
//caft:deterministic
package ftbar

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"caft/internal/dag"
	"caft/internal/sched"
)

func init() {
	sched.Register(sched.Descriptor{
		Name: "ftbar", ID: 4,
		Caps: sched.Caps{AcceptsEps: true, Append: true, Insertion: true},
		New:  Schedule,
	})
}

// Schedule runs FTBAR with npf tolerated failures (npf+1 replicas per
// task). npf = 0 is the fault-free FTBAR baseline of the paper's
// figures.
func Schedule(p *sched.Problem, npf int, rng *rand.Rand) (*sched.Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if npf < 0 || npf+1 > p.Plat.M {
		return nil, fmt.Errorf("ftbar: cannot place %d replicas on %d processors", npf+1, p.Plat.M)
	}
	st := sched.NewState(p)
	l := sched.NewLister(p, rng)
	one := make([]sched.Replica, 1) // probeWithDuplicate's source buffer
	prevLen := 0.0                  // R(n-1)
	for l.Remaining() > 0 {
		free := append([]dag.TaskID(nil), l.Free()...)
		if len(free) == 0 {
			return nil, fmt.Errorf("ftbar: no free task but %d remain", l.Remaining())
		}
		var (
			urgent     dag.TaskID
			urgentProc []procPressure
			urgentSig  float64
			ties       int
		)
		for _, t := range free {
			procs, sig, err := bestProcessors(st, l, t, npf, prevLen)
			if err != nil {
				return nil, err
			}
			switch {
			case ties == 0 || sig > urgentSig:
				urgent, urgentProc, urgentSig, ties = t, procs, sig, 1
			case sig == urgentSig:
				ties++
				if rng.Intn(ties) == 0 {
					urgent, urgentProc = t, procs
				}
			}
		}
		for k := 0; k <= npf; k++ {
			rep, err := placeWithMST(st, urgent, k, urgentProc[k].proc, one)
			if err != nil {
				return nil, err
			}
			if rep.Finish > prevLen {
				prevLen = rep.Finish
			}
		}
		l.Take(urgent)
		l.MarkScheduled(urgent, sched.EarliestFinish(st.Reps[urgent]))
	}
	return st.Snapshot(), nil
}

// placeWithMST places replica `copy` of task t on proc, applying the
// single-level Minimize-Start-Time refinement: if duplicating the
// critical predecessor (the one whose earliest message arrival gates
// the replica's start) onto proc lets the replica finish earlier, the
// duplicate is committed alongside. Duplicates are extra replicas of
// the predecessor and only increase redundancy. one is the build's
// buffer for probeWithDuplicate.
func placeWithMST(st *sched.State, t dag.TaskID, copy, proc int, one []sched.Replica) (sched.Replica, error) {
	sources := st.FullSources(t)
	base, err := st.ProbeReplica(t, copy, proc, sources)
	if err != nil {
		return sched.Replica{}, err
	}
	if crit, ok := criticalPred(st, proc, sources, base.Start); ok {
		if cand, err2 := probeWithDuplicate(st, t, copy, proc, crit, sources, one); err2 == nil && cand.Finish < base.Finish {
			// Commit the duplicate, then the replica; FullSources now
			// includes the duplicate, so the intra rule kicks in.
			dupCopy := len(st.Reps[crit])
			if _, err := st.PlaceReplica(crit, dupCopy, proc, st.FullSources(crit)); err != nil {
				return sched.Replica{}, err
			}
			return st.PlaceReplica(t, copy, proc, st.FullSources(t))
		}
	}
	return st.PlaceReplica(t, copy, proc, sources)
}

// criticalPred returns the predecessor whose earliest message arrival
// equals the replica's start time — the input that gates it — when the
// start is communication-bound and the predecessor has no replica on
// proc yet.
func criticalPred(st *sched.State, proc int, sources []sched.SourceSet, start float64) (dag.TaskID, bool) {
	for _, set := range sources {
		best := math.Inf(1)
		onProc := false
		for _, src := range set.Sources {
			if src.Proc == proc {
				onProc = true
				break
			}
			_, fin := st.ProbeComm(src.Proc, proc, src.Finish, set.Volume)
			if fin < best {
				best = fin
			}
		}
		if !onProc && math.Abs(best-start) <= sched.Eps {
			return set.Pred, true
		}
	}
	return 0, false
}

// probeWithDuplicate simulates duplicating pred onto proc followed by
// the replica placement and returns the resulting replica. Both
// placements run on one probe overlay (State.Probe), so the replica's
// transfers and slot see the duplicate's reservations and neither
// writes the state. The overlay keeps no records, so the replica gets
// the duplicate as pred's only source, in one, the build's one-element
// buffer, swapped into sources (t's full source sets) for the
// placement and swapped out after it: with the duplicate on proc the
// intra rule suppresses every other source of pred, as placing the
// duplicate for real and then the replica with FullSources(t) would.
func probeWithDuplicate(st *sched.State, t dag.TaskID, copy, proc int, pred dag.TaskID, sources []sched.SourceSet, one []sched.Replica) (sched.Replica, error) {
	ov := st.Probe()
	dup, err := ov.PlaceReplica(pred, len(st.Reps[pred]), proc, st.FullSources(pred))
	if err != nil {
		return sched.Replica{}, err
	}
	i := 0
	for sources[i].Pred != pred {
		i++
	}
	one[0] = dup
	full := sources[i].Sources
	sources[i].Sources = one
	rep, err := ov.PlaceReplica(t, copy, proc, sources)
	sources[i].Sources = full
	return rep, err
}

type procPressure struct {
	proc     int
	pressure float64
}

// byPressure orders processors by schedule pressure, ties to the
// smaller processor: a total order, so an unstable sort gives one
// result.
func byPressure(a, b procPressure) int {
	return cmp.Or(cmp.Compare(a.pressure, b.pressure), cmp.Compare(a.proc, b.proc))
}

// bestProcessors returns the npf+1 processors with the minimum schedule
// pressure for t, in increasing pressure order, and the task's urgency:
// the maximum pressure within that selected set. Probing covers every
// processor by default and the top-ProbeWidth candidates (never fewer
// than the npf+1 the replicas need) when bounded.
func bestProcessors(st *sched.State, l *sched.Lister, t dag.TaskID, npf int, prevLen float64) ([]procPressure, float64, error) {
	sources := st.FullSources(t)
	m := st.P.Plat.M
	all := make([]procPressure, 0, m)
	bl := l.BottomLevel(t)
	for _, proc := range st.Candidates(t, npf+1) {
		rep, err := st.ProbeReplica(t, 0, proc, sources)
		if err != nil {
			return nil, 0, err
		}
		all = append(all, procPressure{proc: proc, pressure: rep.Start + bl - prevLen})
	}
	slices.SortFunc(all, byPressure)
	sel := all[:npf+1]
	return sel, sel[len(sel)-1].pressure, nil
}
